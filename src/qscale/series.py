"""Laguerre-type series expansion of the q-scale functions W and Z.

Pipeline: the model induces a defective density ``ftilde_q`` with total mass
``p in (0,1)`` under the net profit condition; the tail of the associated
compound geometric distribution solves a defective renewal equation whose
Laguerre coefficients ``a^G`` satisfy a lower-triangular Toeplitz system
``A^f a^G = a^F``.  The truncated expansions

    W_K(x) = P(x) - Q_{alpha,K}(x) . a^G
    Z_K(x) = 1 + q * (P*(x) - Q*_{alpha,K}(x) . a^G)

use closed-form kernels built from the convolution integrals Psi_{alpha,k}.
All four share one form, so a single evaluator (``kernels``) returns them with
their analytic (p, gamma) gradients.  Every caller wants Q and Q* only through
fixed weights (a^G for W_K and Z_K, [a^G | A^{-1} B] for the CLT gradients),
so ``kernels`` takes the (K+1, r) weight matrix U and returns U^T Q and
U^T Q*: no (K+1)-row kernel stack is formed on the x side.  Its ``eval_*`` /
``grad_*`` projections are identity-weight wrappers kept only as benchmark
trace-probe bindings (``PROBE_ONLY``); no code reads them.  For x < 0 every
kernel is 0, so W_K = 0 and Z_K = 1 there (the convention of Kuznetsov,
Kyprianou & Rivero 2012, Levy Matters II).  The starred kernels are the exact
antiderivatives of the unstarred ones, so Z_K = 1 + q * int_0^x W_K holds
identically.

Coefficients: p, a^f_k, a^F_k are nu-integrals of kernels H_p, H^f_k, H^F_k:
one linear map (``h_functionals_at``) of the K+2 sources Psi_{0..K}(z; -gamma)
and (1 - e^{-gamma z}) / gamma, as are their gamma-derivatives.  The
population a^f, a^F are Taylor coefficients of closed transforms
(``coeffs_true``); for an empirical measure they are the kernels' sample
means, the estimators' exact reference.  The per-jump kernels and the
quadrature cross-checks of this production path live in ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy import linalg

from .exceptions import DomainError, IllConditionedError, NumericalError
from .laguerre import LaguerreParams, contract, forward_sources, ladder, psi_integral_all
from .levy import LevyModel, ThetaParams

__all__ = [
    "CoefficientSet",
    "ScaleApprox",
    "p_value",
    "gamma_window",
    "h_functionals_at",
    "coeffs_true",
    "scale_approx",
    "build_Af",
    "build_B",
    "solve_aG",
    "Kernel",
    "Kernels",
    "kernels",
    "eval_P",
    "eval_Q_all",
    "eval_Pstar",
    "eval_Qstar_all",
    "grad_P",
    "grad_Q_all",
    "grad_Pstar",
    "grad_Qstar_all",
]

_SOLVE_RTOL = 1e-12
_DIAG_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# Mass of the defective density
# ---------------------------------------------------------------------------

def p_value(model: LevyModel, theta: ThetaParams) -> float:
    """p = nu(H_p(.; theta)) in closed form via the jump exponential functional.

    H_p(z) = (1 - e^{-gamma z}) / (gamma (c + D gamma)) covers both branches
    (beta D = c + D gamma when D > 0), with the gamma -> 0 limit z / c.
    """
    model.require_npc()
    c, D, gamma = model.c, theta.D, theta.gamma
    if gamma == 0.0:
        return model.jumps.mean() / c
    # 0.0 - x is -x, and +0.0 (not -0.0) for the zero measure
    return float(0.0 - model.jumps.exp_functional(gamma) / (gamma * (c + D * gamma)))


# ---------------------------------------------------------------------------
# Coefficient kernels H_p, H^f_k, H^F_k
# ---------------------------------------------------------------------------

# Taylor coefficients (m + 1) / (m + 2)! of g(u) = ((u - 1) e^u + 1) / u^2, m = 0..11;
# for |u| < 0.1 the first term left out is below 1e-21 of g
_EXPM1_DB_TAYLOR = tuple((m + 1) / math.factorial(m + 2) for m in range(12))


def _times(b: float, x: np.ndarray) -> np.ndarray:
    """u = b x, floored at -1e300.  At the atom b = -beta, beta = c/D + gamma, u
    overflows to -inf for tiny D; e^u, expm1(u) and g(u) are already at their
    u -> -inf limits at -1e300, and g's closed form would meet inf - inf at -inf."""
    with np.errstate(over="ignore"):
        return np.maximum(b * x, -1e300)


def _expm1_ratio(b: float, x) -> np.ndarray:
    """(e^{bx} - 1)/b at fixed x, with the b -> 0 limit x for |b| < 1e-10."""
    x = np.asarray(x, dtype=float)
    return x.copy() if abs(b) < 1e-10 else np.expm1(_times(b, x)) / b


def _expm1_ratio_db(b: float, x) -> np.ndarray:
    """d/db of (e^{bx} - 1)/b at fixed x, continuous through b = 0 (limit x^2 / 2).

    Equals x^2 g(bx) with g(u) = ((u - 1) expm1(u) + u) / u^2.  That closed form
    cancels for small |u|, so |u| < 0.1 sums the Taylor series of g instead;
    elsewhere it divides by u twice, as u^2 overflows for |u| > 1.3e154.
    """
    x = np.asarray(x, dtype=float)
    u = _times(b, x)
    small = np.abs(u) < 0.1
    us, ul = u[small], u[~small]
    g = np.empty_like(u)
    acc = np.zeros_like(us)
    for coef in reversed(_EXPM1_DB_TAYLOR):
        acc = acc * us + coef
    g[small] = acc
    g[~small] = ((ul - 1.0) * np.expm1(ul) + ul) / ul / ul
    return x * x * g


def gamma_window(gamma: float, z) -> tuple[np.ndarray, np.ndarray]:
    """The window kg(z) = (1 - e^{-gamma z}) / gamma (z at gamma = 0) and its gamma-derivative."""
    return _expm1_ratio(-gamma, z), -_expm1_ratio_db(-gamma, z)


def h_functionals_at(c: float, D: float, gamma: float, params: LaguerreParams, psi, kg):
    """(H_p, H^f_{0..K}, H^F_{0..K}): a linear map of the sources psi and kg.

    psi = Psi_{0..K}(z; -gamma) has shape (K+1, *s) and kg = (1 - e^{-gamma
    z}) / gamma shape s, for any s: one column per jump, sums over jumps, or
    the identity, which gives the map's matrix.  H_p = kg / (beta D).
    H^f_k = V_k / D, where V_k = int_0^z e^{-gamma (z-y)} Utilde_k(y) dy solves
    the ladder (alpha + beta) V_k + (alpha - beta) V_{k-1} = diff(Psi)_k.
    Scaled by D, with beta D = c + gamma D, it yields V / D directly, contracts
    by |alpha - beta| / (alpha + beta) <= 1 and reduces at D = 0 to the
    bounded-variation kernels (H^f = Psi / c), so no D = 0 branch is needed.
    H^F is a per-order multiple of kg less a second ladder on H^f.  As beta D
    and (alpha + beta) D move by D per unit gamma, the gamma-derivatives are
    the map on shifted sources, h(d/dgamma Psi - D H^f, d/dgamma kg - D H_p).
    """
    K, alpha = params.K, params.alpha
    sign_sq2a = (params.sq2a * (-1.0) ** np.arange(K + 1)).reshape((-1,) + (1,) * np.ndim(kg))
    bD = c + gamma * D  # beta D
    sD = bD + alpha * D  # (alpha + beta) D
    H_f = ladder(psi[0] / sD, np.diff(psi, axis=0), sD, alpha * D - bD)
    S_f = ladder(H_f[0] / alpha, np.diff(H_f, axis=0) / alpha, 1.0, 1.0)
    return kg / bD, H_f, sign_sq2a * kg / (alpha * bD) - S_f


# ---------------------------------------------------------------------------
# Coefficient system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSet:
    """Expansion state: mass p and the coefficient vectors of length K+1."""

    p: float
    a_f: np.ndarray
    a_F: np.ndarray
    a_G: np.ndarray
    params: LaguerreParams
    theta: ThetaParams

    def __post_init__(self):
        n = self.params.K + 1
        for name in ("a_f", "a_F", "a_G"):
            vec = getattr(self, name)
            if vec.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {vec.shape}")


def _lower_toeplitz(v: np.ndarray, alpha: float) -> np.ndarray:
    """T(v): lower-triangular Toeplitz matrix with first column -diff(v) / sqrt(2 alpha).

    Entry (k, l) for k >= l is -(v_{k-l} - v_{k-l-1}) / sqrt(2 alpha), with
    v_{-1} = 0; zero above the diagonal.
    """
    col = -np.diff(np.asarray(v, dtype=float), prepend=0.0) / np.sqrt(2.0 * alpha)
    return linalg.toeplitz(col, np.zeros(len(col)))


def build_Af(a_f: np.ndarray, alpha: float) -> np.ndarray:
    """A^f = I + T(a^f), the renewal-convolution matrix of the system A^f a^G = a^F."""
    return np.eye(len(a_f)) + _lower_toeplitz(a_f, alpha)


def build_B(a_G: np.ndarray, alpha: float) -> np.ndarray:
    """B_K = (T(a^G), -I): the sensitivity of the triangular system to (a^f, a^F)."""
    return np.hstack([_lower_toeplitz(a_G, alpha), -np.eye(len(a_G))])


def solve_aG(A: np.ndarray, a_F: np.ndarray) -> np.ndarray:
    """Forward substitution for the lower-triangular system A a_G = a_F.

    Raises NumericalError on a non-finite entry of A or a_F,
    IllConditionedError when a diagonal entry is below 1e-10 in magnitude
    (signals p f_q mass concentration), and NumericalError if the final
    residual exceeds 1e-12 * |a_F|_inf.
    """
    A = np.asarray(A, dtype=float)
    a_F = np.asarray(a_F, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(a_F))):
        raise NumericalError("triangular system has non-finite entries")
    min_diag = np.min(np.abs(np.diag(A)))
    if min_diag < _DIAG_FLOOR:
        raise IllConditionedError(f"triangular system near-singular: min |diag| = {min_diag:.3e}")
    x = linalg.solve_triangular(A, a_F, lower=True, check_finite=False)
    scale = max(float(np.max(np.abs(a_F))), 1e-300)
    resid = float(np.max(np.abs(A @ x - a_F)))
    if resid > _SOLVE_RTOL * scale:
        raise NumericalError("triangular solve residual above tolerance", residual=resid)
    return x


def coeffs_true(model: LevyModel, params: LaguerreParams) -> CoefficientSet:
    """Population coefficients (p, a^f, a^F, a^G) at theta0 = (D, Phi(q)).

    One formula for every jump family: a^f, a^F from ``_transform_coeffs``.
    """
    model.require_npc()
    theta = model.theta0()
    p = p_value(model, theta)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"p = {p} outside [0,1)")
    a_f, a_F = _transform_coeffs(model, theta, params, p)
    A = build_Af(a_f, params.alpha)
    a_G = solve_aG(A, a_F)
    return CoefficientSet(p, a_f, a_F, a_G, params, theta)


# Weeks' rule, every size from K: r = 10^(-1/K) caps the roundoff gain r^(-k)
# at 10; aliasing adds a_{k+N} r^N, so N (1 - r) >= 80 gives r^N <= e^(-80)
# and e^(-40) for the N/2 sub-rule of the error check, which the floor of 256
# keeps a real rule at small K.  Nodes sit half a step off the real axis, where
# the removable point theta = gamma lies.
_WEEKS_MIN_NODES = 256
_WEEKS_ALIAS = 80.0
_WEEKS_RTOL = 1e-10


def _transform_coeffs(
    model: LevyModel, theta: ThetaParams, params: LaguerreParams, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """a^f, a^F by Weeks' method: Taylor coefficients from one FFT on |w| = r.

    With theta(w) = alpha (1 + w) / (1 - w), the basis transforms
    sqrt(2 alpha) (theta - alpha)^k / (theta + alpha)^(k+1) make a Laguerre
    series sum_k a_k w^k = sqrt(2 alpha) Fhat(theta(w)) / (1 - w).  For p f_q,
    Fhat = 1 - (psi(theta) - q) / ((theta - gamma)(D theta + c + gamma D)); with
    q = psi(gamma) the polynomial part of psi cancels, leaving nu_e(gamma) -
    nu_e(theta) over that product, nu_e = nu(e^(-theta z) - 1), with
    ``p_value`` at 0.  The tail p Fbar_q has (p - Fhat) / theta.  D = 0 is the
    limit of the D-scaled factor.  Raises NumericalError when the N/2 sub-rule
    differs from the N-node rule by more than 1e-10 of the coefficients' sup.
    """
    K, alpha = params.K, params.alpha
    r = 10.0 ** (-1.0 / max(K, 1))
    N = 1 << math.ceil(math.log2(max(_WEEKS_MIN_NODES, _WEEKS_ALIAS / (1.0 - r))))
    w = r * np.exp(1j * math.pi * (2 * np.arange(N) + 1) / N)
    s = alpha * (1.0 + w) / (1.0 - w)
    nu_e, c, D, gamma = model.jumps.exp_functional, model.c, theta.D, theta.gamma
    F = (nu_e(gamma) - nu_e(s)) / ((s - gamma) * (D * s + c + gamma * D))
    gen = params.sq2a / (1.0 - w) * np.stack([F, (p - F) / s])
    # node j sits at angle 2 pi j / N + pi / N, and node 2j of the sub-rule
    # too; there the first alias, a_{k+N/2} r^(N/2), enters times i, so the
    # check compares complex values (the full rule's aliases are all real)
    ks = np.arange(K + 1)
    twiddle = np.exp(-1j * math.pi * ks / N) / r**ks
    full = np.fft.fft(gen)[:, : K + 1] * twiddle / N
    half = np.fft.fft(gen[:, ::2])[:, : K + 1] * twiddle / (N // 2)
    a = full.real
    err = float(np.max(np.abs(full - half)))
    if not err <= _WEEKS_RTOL * float(np.max(np.abs(a))):
        raise NumericalError("coefficient transform: N and N/2 node rules disagree", residual=err)
    return a[0], a[1]


# ---------------------------------------------------------------------------
# Kernels P, Q, P*, Q* and the truncated scale functions
# ---------------------------------------------------------------------------

class Kernel(NamedTuple):
    """Kernel values and their partial derivatives in p and gamma."""

    value: np.ndarray
    d_p: np.ndarray
    d_gamma: np.ndarray


class Kernels(NamedTuple):
    """P, P* of shape x.shape, and U^T Q, U^T Q* of shape (r, *x.shape) for (K+1, r) weights U."""

    P: Kernel
    Q: Kernel
    Pstar: Kernel
    Qstar: Kernel


def _combine(atom, p: float, gamma: float, D: float, c: float) -> list[Kernel]:
    """The shared form of every kernel, with its (p, gamma) gradient.

    value = (f(gamma) - f(-beta)) / N, beta = c/D + gamma, with the D-scaled
    N = (1-p) (beta + gamma) D = (1-p) (c + 2 gamma D); ``atom(b)`` returns
    a list of pairs (f(b), df/db), one per kernel.  Since d beta / d gamma
    = 1, the gamma-derivative is (f'(gamma) + f'(-beta)) / N - 2 D value /
    (c + 2 gamma D); the p-derivative is value / (1-p).  D = 0 is the limit,
    not a branch: the atom at -beta, not formed there or where c/D
    overflows, is its own limit for x > 0, and it sets W(0) = 0 wherever it
    is formed.
    """
    if p >= 1.0:
        raise DomainError(f"p = {p} >= 1: compound geometric representation undefined")
    parts = atom(gamma)
    beta = float(c) / float(D) + gamma if D > 0 else math.inf
    if math.isfinite(beta):
        parts = [(f - f_b, df + df_b) for (f, df), (f_b, df_b) in zip(parts, atom(-beta))]
    s = c + 2.0 * gamma * D  # (beta + gamma) D
    N = (1.0 - p) * s
    kernels = []
    for f, df in parts:
        value = f / N
        kernels.append(Kernel(value, value / (1.0 - p), df / N - 2.0 * D * value / s))
    return kernels


def _exp_atoms(x, b: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(f, df/db) of the P-atom e^{bx} and the P*-atom (e^{bx} - 1)/b."""
    x = np.asarray(x, dtype=float)
    e = np.exp(_times(b, x))
    return [(e, x * e), (_expm1_ratio(b, x), _expm1_ratio_db(b, x))]


def _exp_kernels(x, p: float, gamma: float, D: float, c: float) -> list[Kernel]:
    """[P, P*]: the kernels that need no Laguerre basis."""
    return _combine(partial(_exp_atoms, x), p, gamma, D, c)


def _db_weights(U: np.ndarray) -> np.ndarray:
    """[U; 0 | V], shape (K+2, 2r): U^T d/db Psi_{0..K} = x U^T Psi - V^T Psi_{0..K+1} / (2 alpha).

    ``psi_db_from``'s three-term identity moved onto the weights:
    V_j = (2j+1) U_j - j U_{j-1} - (j+1) U_{j+1}, with U_{-1} = U_{K+1} = U_{K+2} = 0.
    """
    n, r = U.shape
    W = np.zeros((n + 1, 2 * r))
    W[:n, :r] = U
    j = np.arange(n + 1.0)[:, None]
    V = W[:, r:]
    V[:n] = (2.0 * j[:n] + 1.0) * U
    V[1:] -= j[1:] * U
    V[:-2] -= j[1:-1] * U[1:]
    return W


def kernels(
    params: LaguerreParams, x, p: float, gamma: float, D: float, c: float, U
) -> Kernels:
    """P, U^T Q_{alpha,0..K}, P*, U^T Q*_{alpha,0..K} at x with their (p, gamma) gradients.

    U holds the caller's (K+1, r) weights: a^G for W_K and Z_K, [a^G | A^{-1} B]
    for the CLT gradients, the identity for the rows themselves.  The
    Q-atoms are phi_k + b Psi_k(x; b) and the Q*-atoms Psi_k(x; b), and each
    b contracts Psi_{0..K+1} with [U; 0 | V] (``_db_weights``), which gives
    U^T Psi and U^T d/db Psi together.  One Laguerre recurrence over x gives
    U^T phi and the sources of the forward sweep at b = gamma >= 0
    (``forward_sources``), whose ladder runs as its adjoint on the weights;
    at b = -beta the backward sweep's rows are contracted after it.  Every
    kernel vanishes at x < 0, where W^(q) = 0 and Z^(q) = 1.
    """
    x = np.asarray(x, dtype=float)
    U = np.asarray(U, dtype=float)
    K, a, r = params.K, params.alpha, U.shape[1]
    below = x < 0.0
    x = np.where(below, 0.0, x)
    W = _db_weights(U)
    # phi at b = gamma's recurrence; a gamma < 0 (never a Lundberg exponent)
    # takes the backward sweep and discards these sources
    S, U_M = forward_sources(K + 1, a, x, max(gamma, 0.0), U)
    U_phi = params.sq2a * U_M
    psi_fwd = None
    if gamma >= 0.0:
        s = a + gamma
        # the adjoint of diag J_k + off J_{k-1} = S_k (J_0 = S_0) on W: errors
        # grow by the same |off / diag| <= 1 per step, from the top order down
        lam = np.empty_like(W)
        lam[:0:-1] = ladder(W[-1] / s, W[-2:0:-1], s, 2.0 * a - s)
        lam[0] = W[0] - (2.0 * a - s) * lam[1]
        psi_fwd = params.sq2a * contract(lam, S)
    del S  # not held through the backward sweep

    def atom(b):
        psi_w = psi_fwd if b >= 0.0 else contract(W, psi_integral_all(params, x, b, K + 1))
        U_psi = psi_w[:r]
        U_db = x * U_psi - psi_w[r:] / (2.0 * a)
        return [*_exp_atoms(x, b), (U_phi + b * U_psi, U_psi + b * U_db), (U_psi, U_db)]

    P, Pstar, Q, Qstar = _combine(atom, p, gamma, D, c)
    if np.any(below):
        P, Pstar, Q, Qstar = (
            Kernel(*(np.where(below, 0.0, part) for part in kern)) for kern in (P, Pstar, Q, Qstar)
        )
    return Kernels(P, Q, Pstar, Qstar)


def eval_P(x, p: float, gamma: float, D: float, c: float):
    """Leading term of W_K (the p f_q = 0 part of the compound-geometric form)."""
    return _exp_kernels(x, p, gamma, D, c)[0].value


def eval_Pstar(x, p: float, gamma: float, D: float, c: float):
    """int_0^x P; exact antiderivative of eval_P."""
    return _exp_kernels(x, p, gamma, D, c)[1].value


def _identity_kernels(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    return kernels(params, x, p, gamma, D, c, np.eye(params.K + 1))


def eval_Q_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """Q_{alpha,k}(x) for k = 0..K; the kernel applied to each basis function."""
    return _identity_kernels(params, x, p, gamma, D, c).Q.value


def eval_Qstar_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """int_0^x Q_{alpha,k}; exact antiderivative of eval_Q_all."""
    return _identity_kernels(params, x, p, gamma, D, c).Qstar.value


def grad_P(x, p: float, gamma: float, D: float, c: float):
    """(d/dp P, d/dgamma P)."""
    return _exp_kernels(x, p, gamma, D, c)[0][1:]


def grad_Pstar(x, p: float, gamma: float, D: float, c: float):
    """(d/dp P*, d/dgamma P*)."""
    return _exp_kernels(x, p, gamma, D, c)[1][1:]


def grad_Q_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """(d/dp Q_k, d/dgamma Q_k) for k = 0..K."""
    return _identity_kernels(params, x, p, gamma, D, c).Q[1:]


def grad_Qstar_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """(d/dp Q*_k, d/dgamma Q*_k) for k = 0..K."""
    return _identity_kernels(params, x, p, gamma, D, c).Qstar[1:]


@dataclass(frozen=True)
class ScaleApprox:
    """Evaluator bundle for W_K and Z_K given a coefficient set.

    Pure and read-only after construction: safe for concurrent evaluation.
    """

    c: float
    q: float
    coeffs: CoefficientSet

    def kernels(self, x, extra=None) -> Kernels:
        """The kernels at x contracted with [a^G | extra]: column 0 gives W_K and Z_K."""
        cs = self.coeffs
        U = cs.a_G[:, None] if extra is None else np.column_stack([cs.a_G, extra])
        return kernels(cs.params, x, cs.p, cs.theta.gamma, cs.theta.D, self.c, U)

    def w_from(self, k: Kernels):
        """W_K(x) = P(x) - Q_{alpha,K}(x) . a^G from ``kernels(x, ...)``."""
        return k.P.value - k.Q.value[0]

    def z_from(self, k: Kernels):
        """Z_K(x) = 1 + q (P*(x) - Q*_{alpha,K}(x) . a^G) from ``kernels(x, ...)``."""
        return 1.0 + self.q * (k.Pstar.value - k.Qstar.value[0])

    def w(self, x):
        return self.w_from(self.kernels(x))

    def z(self, x):
        return self.z_from(self.kernels(x))


def scale_approx(model: LevyModel, params: LaguerreParams) -> ScaleApprox:
    """Build the K-th Laguerre-type approximation of (W, Z) for the model."""
    return ScaleApprox(c=model.c, q=model.q, coeffs=coeffs_true(model, params))
