"""Estimation pipeline: D_hat, nu_hat, gamma_hat, coefficient estimators,
plug-in scale-function estimators, and the asymptotic covariance machinery.

Every coefficient-level quantity is a threshold functional
``nu_hat(H) = (1/T) sum_{recorded jumps} H(size)``; the CLT covariance of the
stacked estimator (a^f, a^F, p, gamma) is Gamma Sigma Gamma^T with
``sigma_ij = nu(Htilde_i Htilde_j)`` and Gamma the identity bordered by the
column ``nu(d/dgamma H)`` (plugged in with estimates throughout).  After
``estimate_D`` and ``estimate_gamma``, ``estimate_coeffs`` reads the jump
sizes once: one sweep of the kernels H and their analytic gamma-derivative
gives the coefficients, Sigma_hat and Gamma_hat, which travel on
``PipelineEstimates``.  Nothing downstream reads the sample: pointwise
variances for W_hat and Z_hat contract that matrix with the gradient rows
C_K(x), q C*_K(x), and confidence bounds are value +/- z * sqrt(var / T):
pointwise intervals in x at the fixed asymptotic level ``LEVEL``.
The oracle report runs the same machinery on population estimates (zero
Sigma, identity Gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special
from scipy.linalg import solve_triangular

from .exceptions import DegenerateEstimateError, DomainError
from .laguerre import LaguerreParams
from .levy import LevyModel, ThetaParams, quadratic_bracket
from .series import (
    CoefficientSet,
    ScaleApprox,
    build_Af,
    build_B,
    coeffs_true,
    h_functionals_at,
    solve_aG,
)
from .simulate import JumpSample, ObservationSet, window_steps
from .tabular import write_csv, write_json

__all__ = [
    "LEVEL",
    "estimate_D",
    "realized_D",
    "empirical_psi",
    "empirical_psi_deriv",
    "estimate_gamma",
    "PipelineEstimates",
    "estimate_coeffs",
    "CovarianceReport",
    "covariance_machinery",
    "EstimationReport",
    "build_report",
    "report_from_true_model",
    "write_ci_csv",
]

# asymptotic coverage of every pointwise interval the reports give
LEVEL = 0.95


def estimate_D(obs: ObservationSet, window: float = 1.0) -> float:
    """Realized-variance estimator of D = sigma^2/2 on [0, window] from the grid.

    The raw value is returned even when negative; callers clamp at zero
    where a nonnegative D feeds closed forms.
    """
    m = window_steps(obs.scheme, window)
    incr = np.diff(obs.grid[: m + 1])
    return realized_D(obs, float(np.dot(incr, incr)), window)


def realized_D(sample: JumpSample, sum_sq: float, window: float) -> float:
    """(1/(2 window)) * [ sum_sq - sum of squared recorded jump sizes with time <= window ].

    ``sum_sq`` is the sum of squared grid increments on [0, window], from the
    grid (``estimate_D``) or straight from the simulation
    (``simulate.simulate_window``).
    """
    in_window = sample.jump_times <= window
    jump_sq = float(np.dot(sample.jump_sizes[in_window], sample.jump_sizes[in_window]))
    return (sum_sq - jump_sq) / (2.0 * window)


def empirical_psi(obs: JumpSample, c: float, D: float, r: float) -> float:
    """psi_hat(r) = c r + D r^2 + nu_hat(e^{-r z} - 1); convex in r for D >= 0."""
    tail = float(np.expm1(-r * obs.jump_sizes).sum()) / obs.scheme.T
    return c * r + D * r * r + tail


def empirical_psi_deriv(obs: JumpSample, c: float, D: float, r: float) -> float:
    z = obs.jump_sizes
    return c + 2.0 * D * r - float(np.sum(z * np.exp(-r * z))) / obs.scheme.T


def estimate_gamma(obs: JumpSample, q: float, D_hat: float, c: float) -> float:
    """M-estimator of the Lundberg exponent: gamma_hat solves psi_hat(r) = q.

    Returns 0 exactly when q = 0 (the indicator in the definition).  The
    empirical psi_hat is convex with psi_hat(0) = 0 < q, and since
    e^{-rz} - 1 >= -1 it is bounded below by D r^2 + c r - lambda_hat, with
    lambda_hat the recorded jump count over T.  ``quadratic_bracket`` turns
    that bound into a bracket [0, r_hi] with psi_hat(r_hi) >= q, so the one
    root on (0, inf) is always found.  The bracket is infinite when
    D = max(D_hat, 0) is 0 and c <= 0, where psi_hat <= 0 < q on [0, inf),
    and when its end overflows (D = 0 and c within a few 1e-308 of 0); then
    DegenerateEstimateError is raised with the raw D_hat.
    """
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    if q == 0.0:
        return 0.0
    D = max(D_hat, 0.0)
    hi = quadratic_bracket(D, c, q + len(obs.jump_sizes) / obs.scheme.T)
    if math.isinf(hi):
        raise DegenerateEstimateError(f"psi_hat = q has no finite root at c = {c}", raw_value=D_hat)
    # a module-level objective with args: a closure over obs would share a
    # reference cycle with scipy's NaN guard and keep the grid alive until gc
    root = optimize.brentq(_psi_gap, 0.0, hi, args=(obs, c, D, q), xtol=1e-14, rtol=8.9e-16)
    return float(root)


def _psi_gap(r, obs, c, D, q):
    return empirical_psi(obs, c, D, r) - q


@dataclass(frozen=True)
class PipelineEstimates:
    """theta_hat = (max(D_hat, 0), gamma_hat), the plug-in coefficient set,
    and the covariance inputs Sigma_hat, Gamma_hat over the horizon T."""

    D_raw: float
    coeffs: CoefficientSet
    Sigma: np.ndarray       # (2K+4, 2K+4), nu_hat of Htilde outer products
    Gamma: np.ndarray       # (2K+4, 2K+4), identity bordered by nu_hat(dH/dgamma)
    T: float

    @staticmethod
    def population(coeffs: CoefficientSet) -> "PipelineEstimates":
        """The true parameters as estimates: no sampling error, so Sigma is
        zero and Gamma the identity (an infinite horizon)."""
        dim = 2 * coeffs.params.K + 4
        return PipelineEstimates(
            D_raw=coeffs.theta.D, coeffs=coeffs,
            Sigma=np.zeros((dim, dim)), Gamma=np.eye(dim), T=math.inf,
        )

    @property
    def theta(self) -> ThetaParams:
        return self.coeffs.theta

    @property
    def p(self) -> float:
        return self.coeffs.p

    @property
    def v_gamma_sq(self) -> float:
        """Asymptotic variance of sqrt(T) (gamma_hat - gamma_0)."""
        return float(self.Sigma[-1, -1])


def estimate_coeffs(
    obs: JumpSample,
    c: float,
    params: LaguerreParams,
    *,
    D_hat: float,
    gamma_hat: float,
) -> PipelineEstimates:
    """(p_hat, a^f_hat, a^F_hat, a^G_hat), Sigma_hat and Gamma_hat from one sample.

    One sweep of the closed-form kernels and their gamma-derivative over the
    recorded jump sizes gives every average; a^G_hat then solves the
    triangular system built from a^f_hat.  Raises DegenerateEstimateError
    when p_hat >= 1 (every downstream formula divides by 1 - p) and
    IllConditionedError when the triangular system degenerates.
    """
    theta = ThetaParams(D=max(D_hat, 0.0), gamma=gamma_hat)
    n = params.K + 1
    z, T = obs.jump_sizes, obs.scheme.T
    vals, d_gamma = h_functionals_at(c, theta.D, theta.gamma, params, z)
    H = _stacked(*vals)
    nu = H.sum(axis=1) / T
    a_f, a_F, p_hat = nu[:n], nu[n:-1], float(nu[-1])
    if p_hat >= 1.0:
        raise DegenerateEstimateError("p_hat >= 1", raw_value=p_hat)
    a_G = solve_aG(build_Af(a_f, params.alpha), a_F)
    coeffs = CoefficientSet(p_hat, a_f, a_F, a_G, params, theta)

    psi_prime = empirical_psi_deriv(obs, c, theta.D, theta.gamma)
    Htilde = _htilde(H, theta.gamma, z, psi_prime)  # (2K+4, nz)
    Gamma = np.eye(len(Htilde))
    Gamma[:-1, -1] = _stacked(*d_gamma).sum(axis=1) / T
    return PipelineEstimates(
        D_raw=D_hat, coeffs=coeffs,
        Sigma=(Htilde @ Htilde.T) / T, Gamma=Gamma, T=T,
    )


@dataclass(frozen=True)
class CovarianceReport:
    """Plug-in CLT covariance blocks and pointwise LEVEL intervals on the x grid."""

    B: np.ndarray           # (K+1, 2K+2)
    x: np.ndarray
    W_hat: np.ndarray
    Z_hat: np.ndarray
    sigma_W: np.ndarray     # sigma_K(x), asymptotic variance of sqrt(T) (W_hat - W_K)
    sigma_Z: np.ndarray     # sigma*_K(x)
    joint: np.ndarray       # (nx, 2, 2) joint asymptotic covariance
    W_lo: np.ndarray
    W_hi: np.ndarray
    Z_lo: np.ndarray
    Z_hi: np.ndarray
    psd_ok: bool
    min_eig: float


def _stacked(H_p, H_f, H_F) -> np.ndarray:
    """The kernel stack (H^f, H^F, H_p), shape (2K+3, nz)."""
    return np.vstack([H_f, H_F, H_p[None, :]])


def _htilde(H: np.ndarray, gamma: float, z, psi_prime: float) -> np.ndarray:
    """Influence kernels (H^f, H^F, H_p, H_gamma): the stack H with the gamma row appended.

    Expanding psi_hat(gamma_hat) = q around gamma_0 gives sqrt(T)(gamma_hat -
    gamma_0) = -sqrt(T)(nu_hat - nu)(k_gamma) / psi'(gamma) + o_p(1), k_gamma =
    e^{-gamma z} - 1, so H_gamma = -k_gamma / psi' (its sign matters only for
    the cross-covariances).
    """
    H_gamma = -np.expm1(-gamma * z) / psi_prime
    return np.vstack([H, H_gamma[None, :]])


def covariance_machinery(
    est: PipelineEstimates,
    c: float,
    q: float,
    x,
) -> CovarianceReport:
    """B_hat and pointwise variances / CIs for (W, Z) from the estimates alone.

    Gradients of P, Q, P*, Q* in (p, gamma) are analytic; Sigma_hat and
    Gamma_hat come with ``est``.
    """
    coeffs = est.coeffs
    params = coeffs.params
    K = params.K
    dim = 2 * K + 4
    x = np.atleast_1d(np.asarray(x, dtype=float))
    Sigma, Gamma, T = est.Sigma, est.Gamma, est.T

    eigs = np.linalg.eigvalsh(Sigma)
    min_eig = float(eigs[0])
    psd_ok = min_eig >= -1e-10 * max(1.0, float(np.trace(Sigma)))

    B = build_B(coeffs.a_G, params.alpha)
    A = build_Af(coeffs.a_f, params.alpha)
    AinvB = solve_triangular(A, B, lower=True)  # (K+1, 2K+2)

    approx = ScaleApprox(c=c, q=q, coeffs=coeffs)
    k = approx.kernels(x)
    W_hat, Z_hat = approx.w_from(k), approx.z_from(k)
    # gradient rows C_K (W) and q C*_K (Z), mapped through Gamma
    rows = np.empty((len(x), 2, dim))
    for r, (P, Q, scale) in enumerate([(k.P, k.Q, 1.0), (k.Pstar, k.Qstar, q)]):
        C = np.empty((len(x), dim))
        C[:, : 2 * K + 2] = Q.value.T @ AinvB
        C[:, 2 * K + 2] = P.d_p - coeffs.a_G @ Q.d_p
        C[:, 2 * K + 3] = P.d_gamma - coeffs.a_G @ Q.d_gamma
        rows[:, r] = scale * (C @ Gamma)
    joint = np.einsum("xai,xbi->xab", rows @ Sigma, rows)
    sigma_W, sigma_Z = joint[:, 0, 0], joint[:, 1, 1]

    zq = float(special.ndtri(0.5 + LEVEL / 2.0))
    if psd_ok:
        hw_W = zq * np.sqrt(np.maximum(sigma_W, 0.0) / T)
        hw_Z = zq * np.sqrt(np.maximum(sigma_Z, 0.0) / T)
        W_lo, W_hi = W_hat - hw_W, W_hat + hw_W
        Z_lo, Z_hi = Z_hat - hw_Z, Z_hat + hw_Z
    else:  # suppress intervals rather than report nonsense
        nanarr = np.full_like(W_hat, np.nan)
        W_lo = W_hi = Z_lo = Z_hi = nanarr

    return CovarianceReport(
        B=B, x=x, W_hat=W_hat, Z_hat=Z_hat, sigma_W=sigma_W, sigma_Z=sigma_Z, joint=joint,
        W_lo=W_lo, W_hi=W_hi, Z_lo=Z_lo, Z_hi=Z_hi, psd_ok=psd_ok, min_eig=min_eig,
    )


@dataclass
class EstimationReport:
    """Everything one estimation run produces, JSON-serializable."""

    c: float
    q: float
    est: PipelineEstimates
    cov: CovarianceReport
    scheme: dict
    seed: int
    n_jumps: int
    flags: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        est, cov = self.est, self.cov
        coeffs = est.coeffs
        return {
            "c": self.c,
            "q": self.q,
            "laguerre": {"alpha": coeffs.params.alpha, "K": coeffs.params.K},
            "estimates": {
                "D_hat_raw": est.D_raw,
                "D_hat": est.theta.D,
                "gamma_hat": est.theta.gamma,
                "p_hat": est.p,
                "a_f_hat": coeffs.a_f.tolist(),
                "a_F_hat": coeffs.a_F.tolist(),
                "a_G_hat": coeffs.a_G.tolist(),
                "v_gamma_sq": est.v_gamma_sq,
            },
            "covariance": {
                "Sigma": est.Sigma.tolist(),
                "Gamma": est.Gamma.tolist(),
                "B": cov.B.tolist(),
                "psd_ok": cov.psd_ok,
                "min_eig": cov.min_eig,
            },
            "curves": {
                "x": cov.x.tolist(),
                "W_hat": cov.W_hat.tolist(),
                "Z_hat": cov.Z_hat.tolist(),
                "sigma_K": cov.sigma_W.tolist(),
                "sigma_star_K": cov.sigma_Z.tolist(),
                "joint_cov": cov.joint.tolist(),
                "W_lo": cov.W_lo.tolist(),
                "W_hi": cov.W_hi.tolist(),
                "Z_lo": cov.Z_lo.tolist(),
                "Z_hi": cov.Z_hi.tolist(),
                "level": LEVEL,
            },
            "scheme": self.scheme,
            "seed": self.seed,
            "n_jumps": self.n_jumps,
            "flags": self.flags,
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())


def build_report(
    obs: JumpSample,
    q: float,
    c: float,
    params: LaguerreParams,
    x,
    *,
    D_hat: float,
) -> EstimationReport:
    """Run the whole pipeline on one sample, given its raw D_hat.

    D_hat comes from the caller: ``estimate_D`` of an observation set's grid
    or ``realized_D`` of a simulated sum of squares; everything else reads
    only the recorded jumps.
    """
    gamma_hat = estimate_gamma(obs, q, D_hat, c)
    est = estimate_coeffs(obs, c, params, D_hat=D_hat, gamma_hat=gamma_hat)
    cov = covariance_machinery(est, c, q, x)
    flags = {}
    if D_hat < 0:
        flags["negative_D_hat"] = True
    if not cov.psd_ok:
        flags["non_psd_sigma"] = True
    return EstimationReport(
        c=c, q=q, est=est, cov=cov, scheme=obs.scheme.to_dict(), seed=obs.seed,
        n_jumps=len(obs.jump_sizes), flags=flags,
    )


def report_from_true_model(
    model: LevyModel,
    params: LaguerreParams,
    x,
) -> EstimationReport:
    """Oracle mode: true (theta0, p0, a^G) through the estimation code path.

    Reproduces the scale_series curves exactly; with no sampling error the
    covariance blocks are zero and the bounds equal the curves.
    """
    est = PipelineEstimates.population(coeffs_true(model, params))
    cov = covariance_machinery(est, model.c, model.q, x)
    return EstimationReport(
        c=model.c, q=model.q, est=est, cov=cov, scheme={}, seed=-1, n_jumps=0,
        flags={"oracle_mode": True},
    )


def write_ci_csv(path, cov: CovarianceReport) -> None:
    """Per-x curve: x, W_hat, Z_hat, W_lo, W_hi, Z_lo, Z_hi, sigma_K, sigma_star_K."""
    write_csv(
        path,
        ["x", "W_hat", "Z_hat", "W_lo", "W_hi", "Z_lo", "Z_hi", "sigma_K", "sigma_star_K"],
        [cov.x, cov.W_hat, cov.Z_hat, cov.W_lo, cov.W_hi, cov.Z_lo, cov.Z_hi,
         cov.sigma_W, cov.sigma_Z],
    )
