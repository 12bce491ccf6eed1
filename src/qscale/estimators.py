"""Estimation pipeline: D_hat, nu_hat, gamma_hat, coefficient estimators,
plug-in scale-function estimators, and the asymptotic covariance machinery.

Every coefficient-level quantity is a threshold functional
``nu_hat(H) = (1/T) sum_{recorded jumps} H(size)``; the CLT covariance of the
stacked estimator (a^f, a^F, p, gamma) is Gamma Sigma Gamma^T with
``sigma_ij = nu(Htilde_i Htilde_j)`` and Gamma the identity bordered by the
column ``nu(d/dgamma H)`` (plugged in with estimates throughout).  The
kernels H and their analytic gamma-derivative come from one sweep over the
jump sizes in ``estimate_coeffs`` and travel on ``PipelineEstimates``.
Pointwise variances for W_hat and Z_hat contract that matrix with the
gradient rows C_K(x), q C*_K(x); confidence bounds are value +/- z *
sqrt(var / T).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import optimize, special
from scipy.linalg import solve_triangular

from .exceptions import DegenerateEstimateError, DomainError
from .laguerre import LaguerreParams
from .levy import LevyModel, ThetaParams
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
from .tabular import write_csv

__all__ = [
    "estimate_D",
    "realized_D",
    "empirical_psi",
    "empirical_psi_deriv",
    "GammaEstimate",
    "estimate_gamma",
    "PipelineEstimates",
    "estimate_coeffs",
    "build_B",
    "CovarianceReport",
    "covariance_machinery",
    "EstimationReport",
    "build_report",
    "report_from_true_model",
    "write_ci_csv",
]


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


def empirical_psi(obs: JumpSample, c: float, D: float, r) -> float:
    """psi_hat(r) = c r + D r^2 + nu_hat(e^{-r z} - 1); convex in r for D >= 0."""
    z = obs.jump_sizes
    tail = float(np.sum(np.expm1(-np.multiply.outer(r, z)))) / obs.scheme.T if len(z) else 0.0
    return c * r + D * r * r + tail


def empirical_psi_deriv(obs: JumpSample, c: float, D: float, r) -> float:
    z = obs.jump_sizes
    tail = float(np.sum(z * np.exp(-r * z))) / obs.scheme.T if len(z) else 0.0
    return c + 2.0 * D * r - tail


@dataclass(frozen=True)
class GammaEstimate:
    value: float
    boundary: bool = False  # search hit the box edge; value is the box optimum


def estimate_gamma(
    obs: JumpSample,
    q: float,
    D_hat: float,
    c: float,
    r_max: float | None = None,
) -> GammaEstimate:
    """M-estimator of the Lundberg exponent: gamma_hat solves psi_hat(r) = q.

    Returns 0 exactly when q = 0 (the indicator in the definition).  The
    empirical psi_hat is convex, so its largest root is found by locating the
    minimizer of psi_hat (root of the increasing psi_hat') and bracketing to
    the right; when psi_hat never reaches q on [0, r_max] the squared
    objective is minimized by golden section instead and the boundary flag
    is set.
    """
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    if q == 0.0:
        return GammaEstimate(0.0)
    D = max(D_hat, 0.0)
    if r_max is None:
        # ten times the Brownian-only root at 2q: a generous, finite box
        if D > 0:
            r0 = (-c + math.sqrt(c * c + 8.0 * D * q)) / (2.0 * D)
        else:
            r0 = 2.0 * q / c
        r_max = 10.0 * max(r0, 1e-3)

    # module-level objectives with args: a closure over obs would share a
    # reference cycle with scipy's NaN guard and keep the grid alive until gc
    lo = 0.0
    if _dpsi(0.0, obs, c, D) < 0.0:
        if _dpsi(r_max, obs, c, D) <= 0.0:
            lo = r_max
        else:
            lo = optimize.brentq(_dpsi, 0.0, r_max, args=(obs, c, D), xtol=1e-14)
    args = (obs, c, D, q)
    if _psi_gap(r_max, *args) < 0.0 or _psi_gap(lo, *args) > 0.0:
        res = optimize.minimize_scalar(
            _psi_gap_sq, bounds=(0.0, r_max), args=args, method="bounded",
            options={"xatol": 1e-12},
        )
        return GammaEstimate(float(res.x), boundary=True)
    if _psi_gap(lo, *args) == 0.0:
        return GammaEstimate(float(lo))
    root = optimize.brentq(_psi_gap, lo, r_max, args=args, xtol=1e-14, rtol=8.9e-16)
    return GammaEstimate(float(root))


def _psi_gap(r, obs, c, D, q):
    return empirical_psi(obs, c, D, r) - q


def _psi_gap_sq(r, obs, c, D, q):
    return _psi_gap(r, obs, c, D, q) ** 2


def _dpsi(r, obs, c, D):
    return empirical_psi_deriv(obs, c, D, r)


@dataclass(frozen=True)
class PipelineEstimates:
    """theta_hat = (max(D_hat, 0), gamma_hat) and the plug-in coefficient set.

    ``h_stack`` holds (H, d/dgamma H) at the recorded jump sizes when the
    estimates were computed from them (see ``_h_stack``), so the covariance
    machinery need not sweep the kernels again.
    """

    D_raw: float
    gamma: GammaEstimate
    coeffs: CoefficientSet
    h_stack: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def theta(self) -> ThetaParams:
        return self.coeffs.theta

    @property
    def p(self) -> float:
        return self.coeffs.p


def estimate_coeffs(
    obs: JumpSample,
    q: float,
    c: float,
    params: LaguerreParams,
    D_hat: float | None = None,
    gamma_hat: GammaEstimate | None = None,
) -> PipelineEstimates:
    """(p_hat, a^f_hat, a^F_hat, a^G_hat) from one sample.

    Without ``D_hat``, ``obs`` must be an ObservationSet and D is estimated
    from its grid on [0, 1].  Averages the closed-form kernels over recorded
    jump sizes, then solves the triangular system built from a^f_hat.  Raises
    DegenerateEstimateError when p_hat >= 1 (every downstream formula
    divides by 1 - p) and IllConditionedError when the triangular system
    degenerates.
    """
    if D_hat is None:
        D_hat = estimate_D(obs)
    if gamma_hat is None:
        gamma_hat = estimate_gamma(obs, q, D_hat, c)
    theta = ThetaParams(D=max(D_hat, 0.0), gamma=gamma_hat.value)
    n = params.K + 1
    if len(obs.jump_sizes) == 0:
        coeffs = CoefficientSet(0.0, np.zeros(n), np.zeros(n), np.zeros(n), params, theta)
        return PipelineEstimates(D_raw=D_hat, gamma=gamma_hat, coeffs=coeffs)
    H, dH = _h_stack(c, theta, params, obs.jump_sizes)
    nu = H.sum(axis=1) / obs.scheme.T
    a_f, a_F, p_hat = nu[:n], nu[n:-1], float(nu[-1])
    if p_hat >= 1.0:
        raise DegenerateEstimateError("p_hat >= 1", raw_value=p_hat)
    a_G = solve_aG(build_Af(a_f, params.alpha), a_F)
    coeffs = CoefficientSet(p_hat, a_f, a_F, a_G, params, theta)
    return PipelineEstimates(D_raw=D_hat, gamma=gamma_hat, coeffs=coeffs, h_stack=(H, dH))


@dataclass(frozen=True)
class CovarianceReport:
    """Plug-in CLT covariance blocks and pointwise intervals on the x grid."""

    Sigma: np.ndarray       # (2K+4, 2K+4), nu_hat of Htilde outer products
    Gamma: np.ndarray       # (2K+4, 2K+4), identity bordered by nu_hat(dH/dgamma)
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
    level: float
    psd_ok: bool
    min_eig: float

    @property
    def v_gamma_sq(self) -> float:
        """Asymptotic variance of sqrt(T) (gamma_hat - gamma_0)."""
        return float(self.Sigma[-1, -1])


def _stacked(H_p, H_f, H_F) -> np.ndarray:
    """The kernel stack (H^f, H^F, H_p), shape (2K+3, nz)."""
    return np.vstack([H_f, H_F, H_p[None, :]])


def _h_stack(c, theta: ThetaParams, params, z) -> tuple[np.ndarray, np.ndarray]:
    """(H, d/dgamma H) at z from one kernel sweep, each stacked by ``_stacked``."""
    vals, d_gamma = h_functionals_at(c, theta.D, theta.gamma, params, z, d_gamma=True)
    return _stacked(*vals), _stacked(*d_gamma)


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
    obs: JumpSample,
    est: PipelineEstimates,
    c: float,
    q: float,
    x,
    level: float = 0.95,
) -> CovarianceReport:
    """Sigma_hat, Gamma_hat, B_hat and pointwise variances / CIs for (W, Z).

    Gradients of P, Q, P*, Q* in (p, gamma) and the column nu_hat(d/dgamma H)
    in Gamma_hat are analytic.  Sigma_hat and that column reuse the kernel
    stack carried on ``est``; only estimates without it (built by hand)
    cost a sweep over the jump sizes here.
    """
    coeffs = est.coeffs
    params = coeffs.params
    theta = coeffs.theta
    K = params.K
    dim = 2 * K + 4
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = obs.jump_sizes
    T = obs.scheme.T

    if len(z) > 0:
        H, dH = est.h_stack if est.h_stack is not None else _h_stack(c, theta, params, z)
        psi_prime = empirical_psi_deriv(obs, c, theta.D, theta.gamma)
        Htilde = _htilde(H, theta.gamma, z, psi_prime)  # (2K+4, nz)
        Sigma = (Htilde @ Htilde.T) / T
        dH_col = dH.sum(axis=1) / T
    else:
        Sigma = np.zeros((dim, dim))
        dH_col = np.zeros(dim - 1)

    Gamma = np.eye(dim)
    Gamma[: dim - 1, dim - 1] = dH_col

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

    zq = float(special.ndtri(0.5 + level / 2.0))
    if psd_ok:
        hw_W = zq * np.sqrt(np.maximum(sigma_W, 0.0) / T)
        hw_Z = zq * np.sqrt(np.maximum(sigma_Z, 0.0) / T)
        W_lo, W_hi = W_hat - hw_W, W_hat + hw_W
        Z_lo, Z_hi = Z_hat - hw_Z, Z_hat + hw_Z
    else:  # suppress intervals rather than report nonsense
        nanarr = np.full_like(W_hat, np.nan)
        W_lo = W_hi = Z_lo = Z_hi = nanarr

    return CovarianceReport(
        Sigma=Sigma, Gamma=Gamma, B=B, x=x, W_hat=W_hat, Z_hat=Z_hat,
        sigma_W=sigma_W, sigma_Z=sigma_Z, joint=joint,
        W_lo=W_lo, W_hi=W_hi, Z_lo=Z_lo, Z_hi=Z_hi,
        level=level, psd_ok=psd_ok, min_eig=min_eig,
    )


@dataclass
class EstimationReport:
    """Everything one estimation run produces, JSON-serializable."""

    c: float
    q: float
    alpha: float
    K: int
    D_hat_raw: float
    D_hat: float
    gamma_hat: float
    gamma_boundary: bool
    p_hat: float
    a_f_hat: np.ndarray
    a_F_hat: np.ndarray
    a_G_hat: np.ndarray
    cov: CovarianceReport
    scheme: dict
    seed: int
    n_jumps: int
    level: float
    flags: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        cov = self.cov
        return {
            "c": self.c,
            "q": self.q,
            "laguerre": {"alpha": self.alpha, "K": self.K},
            "estimates": {
                "D_hat_raw": self.D_hat_raw,
                "D_hat": self.D_hat,
                "gamma_hat": self.gamma_hat,
                "gamma_boundary": self.gamma_boundary,
                "p_hat": self.p_hat,
                "a_f_hat": self.a_f_hat.tolist(),
                "a_F_hat": self.a_F_hat.tolist(),
                "a_G_hat": self.a_G_hat.tolist(),
                "v_gamma_sq": cov.v_gamma_sq,
            },
            "covariance": {
                "Sigma": cov.Sigma.tolist(),
                "Gamma": cov.Gamma.tolist(),
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
                "level": self.level,
            },
            "scheme": self.scheme,
            "seed": self.seed,
            "n_jumps": self.n_jumps,
            "flags": self.flags,
        }

    def save_json(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )


def build_report(
    obs: JumpSample,
    q: float,
    c: float,
    params: LaguerreParams,
    x,
    level: float = 0.95,
    *,
    D_hat: float,
) -> EstimationReport:
    """Run the whole pipeline on one sample, given its raw D_hat.

    D_hat comes from the caller: ``estimate_D`` of an observation set's grid
    or ``realized_D`` of a simulated sum of squares; everything else reads
    only the recorded jumps.
    """
    gam = estimate_gamma(obs, q, D_hat, c)
    est = estimate_coeffs(obs, q, c, params, D_hat=D_hat, gamma_hat=gam)
    cov = covariance_machinery(obs, est, c, q, x, level=level)
    flags = {}
    if D_hat < 0:
        flags["negative_D_hat"] = True
    if gam.boundary:
        flags["gamma_boundary"] = True
    if not cov.psd_ok:
        flags["non_psd_sigma"] = True
    return EstimationReport(
        c=c, q=q, alpha=params.alpha, K=params.K,
        D_hat_raw=D_hat, D_hat=max(D_hat, 0.0),
        gamma_hat=gam.value, gamma_boundary=gam.boundary,
        p_hat=est.p,
        a_f_hat=est.coeffs.a_f, a_F_hat=est.coeffs.a_F, a_G_hat=est.coeffs.a_G,
        cov=cov, scheme=obs.scheme.to_dict(), seed=obs.seed,
        n_jumps=len(obs.jump_sizes), level=level, flags=flags,
    )


def report_from_true_model(
    model: LevyModel,
    params: LaguerreParams,
    x,
    level: float = 0.95,
) -> EstimationReport:
    """Oracle mode: true (theta0, p0, a^G) through the estimation code path.

    Reproduces the scale_series curves exactly; with no sampling error the
    covariance blocks are zero and the bounds equal the curves.
    """
    coeffs = coeffs_true(model, params)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    approx = ScaleApprox(c=model.c, q=model.q, coeffs=coeffs)
    dim = 2 * params.K + 4
    zeros = np.zeros(len(x))
    k = approx.kernels(x)
    W_hat, Z_hat = approx.w_from(k), approx.z_from(k)
    cov = CovarianceReport(
        Sigma=np.zeros((dim, dim)), Gamma=np.eye(dim),
        B=build_B(coeffs.a_G, params.alpha),
        x=x, W_hat=W_hat, Z_hat=Z_hat,
        sigma_W=zeros, sigma_Z=zeros.copy(),
        joint=np.zeros((len(x), 2, 2)),
        W_lo=W_hat.copy(), W_hi=W_hat.copy(),
        Z_lo=Z_hat.copy(), Z_hi=Z_hat.copy(),
        level=level, psd_ok=True, min_eig=0.0,
    )
    return EstimationReport(
        c=model.c, q=model.q, alpha=params.alpha, K=params.K,
        D_hat_raw=model.D, D_hat=model.D,
        gamma_hat=coeffs.theta.gamma, gamma_boundary=False,
        p_hat=coeffs.p,
        a_f_hat=coeffs.a_f, a_F_hat=coeffs.a_F, a_G_hat=coeffs.a_G,
        cov=cov, scheme={}, seed=-1, n_jumps=0,
        level=level, flags={"oracle_mode": True},
    )


def write_ci_csv(path, cov: CovarianceReport) -> None:
    """Per-x curve: x, W_hat, Z_hat, W_lo, W_hi, Z_lo, Z_hi, sigma_K, sigma_star_K."""
    write_csv(
        path,
        ["x", "W_hat", "Z_hat", "W_lo", "W_hi", "Z_lo", "Z_hi", "sigma_K", "sigma_star_K"],
        [cov.x, cov.W_hat, cov.Z_hat, cov.W_lo, cov.W_hi, cov.Z_lo, cov.Z_hi,
         cov.sigma_W, cov.sigma_Z],
    )
