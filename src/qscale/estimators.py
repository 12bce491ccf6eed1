"""Estimation pipeline: D_hat, nu_hat, gamma_hat, coefficient estimators,
plug-in scale-function estimators, and the asymptotic covariance machinery.

Every coefficient-level quantity is a threshold functional
``nu_hat(H) = (1/T) sum_{recorded jumps} H(size)``; the CLT covariance of the
stacked estimator (a^f, a^F, p, gamma) is Gamma Sigma Gamma^T with
``sigma_ij = nu(Htilde_i Htilde_j)`` and Gamma the identity bordered by the
column ``nu(d/dgamma H)`` (plugged in with estimates throughout).  Each
kernel is a fixed linear image Htilde = L Y of the K+2 rows
Y = [Psi_{0..K}(z; -gamma); (1 - e^{-gamma z}) / gamma].  So
``estimate_coeffs`` reads the jump sizes once, in one Psi sweep: the sums
of Y give the coefficients and Gamma_hat's column, and the thin QR Y^T = Q R
gives Sigma_hat = F F^T with F = L R^T / sqrt(T), of rank <= K+2.  Nothing
downstream reads the sample: the pointwise variances of W_hat and Z_hat
are squared norms of the gradient rows C_K(x), q C*_K(x) times Gamma_hat F,
applied through the kernel weights without forming C_K (see
``covariance_machinery``), and the bounds are value +/- z * sqrt(var / T)
at the asymptotic level ``LEVEL``.  The oracle report runs the same
machinery on population estimates (an empty factor and identity Gamma).
The module runs on numpy alone: gamma_hat's root comes from Newton's
method (``levy.convex_root``), the thin QR from row blocks (``_thin_r``),
and the normal quantile of ``LEVEL`` is a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateEstimateError, DomainError
from .laguerre import LaguerreParams, psi_integral_all, t_multiplier
from .levy import LevyModel, ThetaParams, convex_root, quadratic_bracket
from .series import (
    CoefficientSet,
    ScaleApprox,
    build_Af,
    build_B,
    coeffs_true,
    gamma_window,
    h_functionals_at,
    kernels,
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

# asymptotic coverage of every pointwise interval the reports give, and the
# standard normal quantile at 0.5 + LEVEL / 2 that sets their half-widths
LEVEL = 0.95
_Z_LEVEL = 1.959963984540054
# bytes of one row block of the thin QR (see _thin_r)
_QR_BLOCK_BYTES = 2**19


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
    empirical psi_hat is convex, psi_hat'' = 2 D + nu_hat(z^2 e^{-rz}) >= 0,
    with psi_hat(0) = 0 < q, above D r^2 + c r - lambda_hat (e^{-rz} - 1 >= -1;
    lambda_hat the recorded jump count over T) and above D r^2 + (c -
    nu_hat(z)) r (psi_hat - D r^2 is convex with slope c - nu_hat(z) at 0).
    ``quadratic_bracket`` turns each bound into an end r with psi_hat(r) >
    q; the smaller, r_hi, is the second at small q when c > nu_hat(z).  So
    psi_hat - q has one root on (0, inf), and Newton's method from r_hi
    (``levy.convex_root``, with ``empirical_psi_deriv``) falls monotonically
    onto it, to the relative accuracy of the Lundberg root, small q
    included.  Both ends are infinite when D = max(D_hat, 0) is 0 and c <= 0,
    where psi_hat <= 0 < q on [0, inf), or when they overflow (D = 0 and c
    within a few 1e-308 of 0); then DegenerateEstimateError is raised with
    the raw D_hat.
    """
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    if q == 0.0:
        return 0.0
    D = max(D_hat, 0.0)
    z, T = obs.jump_sizes, obs.scheme.T
    hi = min(quadratic_bracket(D, c, q + len(z) / T), quadratic_bracket(D, c - z.sum() / T, q))
    if math.isinf(hi):
        raise DegenerateEstimateError(f"psi_hat = q has no finite root at c = {c}", raw_value=D_hat)
    return convex_root(
        lambda r: empirical_psi(obs, c, D, r) - q,
        lambda r: empirical_psi_deriv(obs, c, D, r),
        hi,
    )


@dataclass(frozen=True)
class PipelineEstimates:
    """theta_hat = (max(D_hat, 0), gamma_hat), the plug-in coefficient set,
    and the covariance inputs over the horizon T: Gamma_hat and the factor F
    of Sigma_hat = F F^T."""

    D_raw: float
    coeffs: CoefficientSet
    F: np.ndarray           # (2K+4, r), r <= K+2: L R^T / sqrt(T)
    Gamma: np.ndarray       # (2K+4, 2K+4), identity bordered by nu_hat(dH/dgamma)
    T: float

    @staticmethod
    def population(coeffs: CoefficientSet) -> "PipelineEstimates":
        """The true parameters as estimates: no sampling error, so the factor
        is empty (Sigma zero) and Gamma the identity (an infinite horizon)."""
        dim = 2 * coeffs.params.K + 4
        return PipelineEstimates(
            D_raw=coeffs.theta.D, coeffs=coeffs,
            F=np.zeros((dim, 0)), Gamma=np.eye(dim), T=math.inf,
        )

    @property
    def Sigma(self) -> np.ndarray:
        """(2K+4, 2K+4) Sigma_hat, nu_hat of the Htilde outer products."""
        return self.F @ self.F.T

    @property
    def theta(self) -> ThetaParams:
        return self.coeffs.theta

    @property
    def p(self) -> float:
        return self.coeffs.p

    @property
    def v_gamma_sq(self) -> float:
        """Asymptotic variance of sqrt(T) (gamma_hat - gamma_0)."""
        return float(self.F[-1] @ self.F[-1])


def estimate_coeffs(
    obs: JumpSample,
    c: float,
    params: LaguerreParams,
    *,
    D_hat: float,
    gamma_hat: float,
) -> PipelineEstimates:
    """(p_hat, a^f_hat, a^F_hat, a^G_hat), Gamma_hat and Sigma_hat's factor from one sample.

    One order-(K+1) Psi sweep over the recorded jump sizes gives Y; all else
    works on (K+2)-vectors and (K+2)-column matrices.  Raises
    DegenerateEstimateError when p_hat >= 1 (every downstream formula
    divides by 1 - p) and IllConditionedError when the triangular system
    for a^G_hat degenerates.
    """
    theta = ThetaParams(D=max(D_hat, 0.0), gamma=gamma_hat)
    D, gamma, n = theta.D, theta.gamma, params.K + 1
    z, T = obs.jump_sizes, obs.scheme.T
    # Y = [Psi_{0..K}; kg] in the sweep's buffer: only the summed d/dgamma
    # Psi_{0..K} = Z^T sums / (2 alpha) - Psi_{0..K} z reads its top row Psi_{K+1}
    Y = psi_integral_all(params, z, -gamma, kmax=n)
    kg, d_kg = gamma_window(gamma, z)
    sums = Y.sum(axis=1)
    d_psi = t_multiplier(n).T @ sums / (2.0 * params.alpha) - Y[:-1] @ z
    Y[-1], sums[-1] = kg, kg.sum()
    # L: the kernel map on the identity, then H_gamma = gamma kg / psi'(gamma),
    # from expanding psi_hat(gamma_hat) = q around gamma_0 (its sign matters
    # only for the cross-covariances)
    eye = np.eye(n + 1)
    H_p, H_f, H_F = h_functionals_at(c, D, gamma, params, eye[:-1], eye[-1])
    L = np.vstack([H_f, H_F, H_p, gamma / empirical_psi_deriv(obs, c, D, gamma) * eye[-1]])
    H_sums = L[:-1] @ sums
    nu = H_sums / T
    a_f, a_F, p_hat = nu[:n], nu[n:-1], float(nu[-1])
    if p_hat >= 1.0:
        raise DegenerateEstimateError("p_hat >= 1", raw_value=p_hat)
    a_G = solve_aG(build_Af(a_f, params.alpha), a_F)
    coeffs = CoefficientSet(p_hat, a_f, a_F, a_G, params, theta)
    # the summed gamma-derivatives: the same map, L, on shifted summed sources
    d_sources = np.append(d_psi - D * H_sums[:n], d_kg.sum() - D * H_sums[-1])
    Gamma = np.eye(len(L))
    Gamma[:-1, -1] = L[:-1] @ d_sources / T
    R = _thin_r(Y.T)  # Y Y^T = R^T R
    return PipelineEstimates(D_raw=D_hat, coeffs=coeffs, F=L @ R.T / math.sqrt(T), Gamma=Gamma, T=T)


def _thin_r(M: np.ndarray) -> np.ndarray:
    """R of the thin QR M = Q R of a tall matrix, so that M^T M = R^T R.

    M is factored by blocks of rows (TSQR; Demmel, Grigori, Hoemmen & Langou
    2012, SIAM J. Sci. Comput. 34), as backward stable as one QR of M: blocks
    of at most about 512 KB and at least 4 n rows, where LAPACK's level-2
    panel steps stay in cache, then the stacked n-row R factors in turn.
    numpy's QR factors a copy of its input; with at least three blocks that
    copy is at most about a third of M.
    """
    m, n = M.shape
    blocks = max(3, -(-m * n * 8 // _QR_BLOCK_BYTES))
    rows = max(4 * n, -(-m // blocks))
    if m <= rows:
        return np.linalg.qr(M, mode="r")
    return _thin_r(np.vstack([np.linalg.qr(M[i : i + rows], mode="r") for i in range(0, m, rows)]))


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


def covariance_machinery(
    est: PipelineEstimates,
    c: float,
    q: float,
    x,
) -> CovarianceReport:
    """B_hat and pointwise variances / CIs for (W, Z) from the estimates alone.

    The gradient row of W_K in (a^f, a^F, p, gamma) is C_K(x) =
    [Q^T A^{-1} B, d/dp (P - Q a^G), d/dgamma (P - Q a^G)], and q C*_K(x)
    that of Z_K; Gamma_hat and the factor F of Sigma_hat come with ``est``.
    With v = rows Gamma_hat F the joint covariance is v v^T, so its
    diagonal is a sum of squares.  v is formed without C: the kernels are
    contracted once with [a^G | A^{-1} B (Gamma F)_{0..2K+1}], so column 0
    gives the curves and the rest the (a^f, a^F) part of v, and C's p and
    gamma columns C_pg multiply the last two rows of Gamma F.  Only a^G's
    column, the first, is differentiated in gamma (g = 1).  The p-derivative
    of a kernel is its value over 1 - p.
    """
    coeffs, GF, T = est.coeffs, est.Gamma @ est.F, est.T
    params = coeffs.params
    n = 2 * params.K + 2
    x = np.atleast_1d(np.asarray(x, dtype=float))

    B = build_B(coeffs.a_G, params.alpha)
    A = build_Af(coeffs.a_f, params.alpha)
    U = np.column_stack([coeffs.a_G, solve_aG(A, B @ GF[:n])])
    k = kernels(params, x, coeffs.p, coeffs.theta.gamma, coeffs.theta.D, c, U, 1)
    approx = ScaleApprox(c=c, q=q, coeffs=coeffs)
    W_hat, Z_hat = approx.w_from(k), approx.z_from(k)
    v = np.empty((len(x), 2, GF.shape[1]))
    for r, (P, Q, scale) in enumerate([(k.P, k.Q, 1.0), (k.Pstar, k.Qstar, q)]):
        C_pg = np.column_stack([(P.value - Q.value[0]) / (1.0 - est.p), P.d_gamma - Q.d_gamma[0]])
        v[:, r] = scale * (Q.value[1:].T + C_pg @ GF[n:])
    joint = v @ v.transpose(0, 2, 1)
    sigma_W, sigma_Z = joint[:, 0, 0], joint[:, 1, 1]

    hw_W, hw_Z = _Z_LEVEL * np.sqrt(sigma_W / T), _Z_LEVEL * np.sqrt(sigma_Z / T)
    return CovarianceReport(
        B=B, x=x, W_hat=W_hat, Z_hat=Z_hat, sigma_W=sigma_W, sigma_Z=sigma_Z, joint=joint,
        W_lo=W_hat - hw_W, W_hi=W_hat + hw_W, Z_lo=Z_hat - hw_Z, Z_hi=Z_hat + hw_Z,
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
