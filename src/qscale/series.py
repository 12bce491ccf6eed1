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
the analytic gamma-derivatives its caller reads (the p-derivative of a kernel
is its value over 1 - p).  Every caller wants Q and Q* only through fixed
weights (a^G for W_K and Z_K, [a^G | A^{-1} B (Gamma F)_{0..2K+1}] for the
CLT variances), so ``kernels`` takes the (K+1, r) weight matrix U and returns
U^T Q and U^T Q*: no (K+1)-row kernel stack is formed on the x side.  Its
count g names U's first g columns as those whose gamma-derivatives are
read: a^G's (g = 1) for the CLT variances, none for the curves, which form
no derivative.
Its ``eval_*`` / ``grad_*`` projections are identity-weight wrappers kept
only as benchmark trace-probe bindings (``PROBE_ONLY``); no code reads them.
For x < 0 every kernel is 0, so W_K = 0 and Z_K = 1 there (the convention of
Kuznetsov, Kyprianou & Rivero 2012, Levy Matters II).  The starred kernels
are the exact antiderivatives of the unstarred ones, so Z_K = 1 + q *
int_0^x W_K holds identically.

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
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, IllConditionedError, NumericalError
from .laguerre import (
    LaguerreParams,
    backward_seed,
    contract,
    forward_sources,
    ladder,
    t_multiplier,
    weighted_laguerre_all,
)
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
    elsewhere it divides by u twice, as u^2 overflows for |u| > 1.3e154.  Past
    u = 700, where (u - 1) expm1(u) nears the largest double, g = (1 - 1/u)
    e^{u/2} (e^{u/2} / u) + 1/u overflows only where g does (u > 716).
    """
    x = np.asarray(x, dtype=float)
    u = _times(b, x)
    small, large = np.abs(u) < 0.1, u > 700.0
    mid = ~(small | large)
    us, um, ul = u[small], u[mid], u[large]
    g = np.empty_like(u)
    acc = np.zeros_like(us)
    for coef in reversed(_EXPM1_DB_TAYLOR):
        acc = acc * us + coef
    g[small] = acc
    g[mid] = ((um - 1.0) * np.expm1(um) + um) / um / um
    g[large] = (1.0 - 1.0 / ul) * np.exp(ul / 2.0) * (np.exp(ul / 2.0) / ul) + 1.0 / ul
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
    k = np.arange(len(col))
    return np.tril(col[k[:, None] - k])  # above the diagonal k - l < 0 wraps; tril zeroes it


def build_Af(a_f: np.ndarray, alpha: float) -> np.ndarray:
    """A^f = I + T(a^f), the renewal-convolution matrix of the system A^f a^G = a^F."""
    return np.eye(len(a_f)) + _lower_toeplitz(a_f, alpha)


def build_B(a_G: np.ndarray, alpha: float) -> np.ndarray:
    """B_K = (T(a^G), -I): the sensitivity of the triangular system to (a^f, a^F)."""
    return np.hstack([_lower_toeplitz(a_G, alpha), -np.eye(len(a_G))])


def solve_aG(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^{-1} rhs for the lower-triangular A = A^f: a_G from a_F, or the CLT
    weights A^{-1} B (Gamma F)_{0..2K+1}.

    ``rhs`` is a vector or a matrix of right-hand sides, possibly with no
    columns (the empty factor of the oracle report).  numpy has no
    triangular solve, so this is its LU solve, which on a triangular A costs
    a few more flops and is as backward stable.  Raises NumericalError on a
    non-finite entry of A or rhs, IllConditionedError when a diagonal entry
    of A is below 1e-10 in magnitude (signals p f_q mass concentration), and
    NumericalError if the residual exceeds 1e-12 * |rhs|_inf.
    """
    A = np.asarray(A, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
        raise NumericalError("triangular system has non-finite entries")
    min_diag = np.min(np.abs(np.diag(A)))
    if min_diag < _DIAG_FLOOR:
        raise IllConditionedError(f"triangular system near-singular: min |diag| = {min_diag:.3e}")
    x = np.linalg.solve(A, rhs)
    scale = float(np.max(np.abs(rhs), initial=1e-300))
    resid = float(np.max(np.abs(A @ x - rhs), initial=0.0))
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
# keeps a real rule at small K.  At K <= 6 that floor floors r too, at
# 1 - 80/256 = 0.6875 (r^N <= e^(-80), gain r^(-K) <= 10).  Without it, the
# circle r = 0.1 of K = 1 passed near the removable point theta = gamma, and
# a one-ulp move of gamma moved a^F by 1.3e-14 of sup (7.7e-16 with the
# floor, exponential jumps).  N is the least multiple of 64 that meets both:
# even for the sub-rule, and with a power of two in it for the FFT (a power
# of two above that costs up to 1.8 times the time, for no accuracy).  Nodes
# sit half a step off the real axis, where the removable point lies.
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
    r = max(10.0 ** (-1.0 / max(K, 1)), 1.0 - _WEEKS_ALIAS / _WEEKS_MIN_NODES)
    N = 64 * math.ceil(max(_WEEKS_MIN_NODES, _WEEKS_ALIAS / (1.0 - r)) / 64)
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
    """Kernel values and the gamma-derivatives the caller reads; d/dp is value / (1 - p)."""

    value: np.ndarray
    d_gamma: np.ndarray


class Kernels(NamedTuple):
    """P, P* of shape x.shape, and U^T Q, U^T Q* of shape (r, *x.shape) for (K+1, r) weights U.

    With g >= 1 derivative columns, P.d_gamma and Pstar.d_gamma have shape
    x.shape and Q.d_gamma, Qstar.d_gamma are d/dgamma U_g^T Q, U_g^T Q* for
    U's first g columns U_g, shape (g, *x.shape).  With g = 0 every d_gamma
    is empty, shape (0, *x.shape).
    """

    P: Kernel
    Q: Kernel
    Pstar: Kernel
    Qstar: Kernel


def _combine(atoms: list, p: float, gamma: float, D: float, c: float) -> tuple[list, list]:
    """The shared form of every kernel: its values and the gamma-derivatives read.

    value = (f(gamma) - f(-beta)) / N, beta = c/D + gamma, with the D-scaled
    N = (1-p) (beta + gamma) D = (1-p) (c + 2 gamma D).  ``atoms`` holds the
    results (fs, grads) at b = gamma and, where it is formed, at b = -beta:
    one f(b) per kernel, and one pair (f_g(b), d/db f_g(b)) per kernel for
    the columns whose derivative is read, or no pairs.  Since d beta / d
    gamma = 1, the gamma-derivative is (f_g'(gamma) + f_g'(-beta)) / N - 2 D
    value_g / (c + 2 gamma D); the p-derivative, value / (1-p), is left to
    the caller, which divides the combination it needs once.  D = 0 is the
    limit, not a branch: the atom at -beta, not formed there or where c/D
    overflows, is its own limit for x > 0, and it sets W(0) = 0 wherever it
    is formed.
    """
    parts, grads = atoms[0]
    for parts_b, grads_b in atoms[1:]:
        parts = [f - f_b for f, f_b in zip(parts, parts_b)]
        grads = [(f - f_b, df + df_b) for (f, df), (f_b, df_b) in zip(grads, grads_b)]
    s = c + 2.0 * gamma * D  # (beta + gamma) D
    N = (1.0 - p) * s
    values = [f / N for f in parts]
    return values, [df / N - 2.0 * D * (f / N) / s for f, df in grads]


def _exp_values(x: np.ndarray, b: float) -> list[np.ndarray]:
    """The P-atom e^{bx} and the P*-atom (e^{bx} - 1)/b."""
    return [np.exp(_times(b, x)), _expm1_ratio(b, x)]


def _exp_atoms(x, b: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(f, df/db) of the P-atom e^{bx} and the P*-atom (e^{bx} - 1)/b."""
    x = np.asarray(x, dtype=float)
    e, ratio = _exp_values(x, b)
    return [(e, x * e), (ratio, _expm1_ratio_db(b, x))]


def kernels(
    params: LaguerreParams, x, p: float, gamma: float, D: float, c: float, U, g: int
) -> Kernels:
    """P, U^T Q_{alpha,0..K}, P*, U^T Q*_{alpha,0..K} at x, and d/dgamma of U's first g columns.

    U holds the caller's (K+1, r) weights: a^G for W_K and Z_K (g = 0),
    [a^G | A^{-1} B (Gamma F)_{0..2K+1}] for the CLT variances (g = 1), the
    identity for the rows themselves.  With g = 0 no derivative is formed,
    P's and P*'s included; g outside [0, r] raises DomainError.  The
    Q-atoms are phi_k + b Psi_k(x; b) and the Q*-atoms Psi_k(x; b), and
    each b contracts Psi_{0..K+1} with [U | Z U_g] (U_g = U's first g
    columns, row K+1 of U zero, Z = ``t_multiplier(K + 1)``): U^T Psi, whose
    first g rows are U_g^T Psi, and U_g^T d/db Psi = x U_g^T Psi -
    (Z U_g)^T Psi / (2 alpha).  One Laguerre recurrence over x gives U^T
    phi, the backward seed at b = -beta (``backward_seed``) and then, in the
    same buffer, the sources of both sweeps (``forward_sources``).  The
    domain is the compound geometric form's, p < 1 and gamma >= 0 < c +
    gamma D = beta D (Kuznetsov, Kyprianou & Rivero 2012); outside it
    DomainError is raised.  There the atom at gamma sweeps forward and the
    one at -beta < 0 backward from its seed, each as its ladder's adjoint on
    the weights, and one ``ladder`` call runs both side by side.  Every
    kernel vanishes at x < 0, where W^(q) = 0 and Z^(q) = 1.
    """
    if p >= 1.0:
        raise DomainError(f"p = {p} >= 1: compound geometric representation undefined")
    if not (gamma >= 0.0 and c + gamma * D > 0.0):
        raise DomainError(f"need gamma >= 0 < c + gamma D, got {gamma} and {c + gamma * D}")
    x = np.asarray(x, dtype=float)
    U = np.asarray(U, dtype=float)
    K, a, r = params.K, params.alpha, U.shape[1]
    if not 0 <= g <= r:
        raise DomainError(f"g = {g} derivative columns outside [0, {r}]")
    below = x < 0.0
    x = np.where(below, 0.0, x)
    W = np.zeros((K + 2, r + g))
    W[: K + 1, :r] = U
    if g:
        W[:, r:] = t_multiplier(K + 1) @ U[:, :g]
    M = weighted_laguerre_all(K + 1, a, x)
    phi = params.sq2a * contract(U, M[: K + 1])
    # beta = c/D + gamma; no atom at -beta at D = 0 or where c/D overflows
    beta = float(c) / float(D) + gamma if D > 0 else math.inf
    bs = [gamma, -beta] if math.isfinite(beta) else [gamma]
    if len(bs) > 1:
        seed = backward_seed(M.reshape(K + 2, -1), a, x.ravel(), -beta).reshape(x.shape)
    S = forward_sources(M, a, x, gamma)  # in M's buffer

    # each atom's ladder adjoint on W, (diag, off) per column: at gamma that
    # of s J_k + (2a - s) J_{k-1} = S_k (J_0 = S_0) from the top order down,
    # at -beta that of (2a - s) J_k + s J_{k+1} = S_{k+1} (J_{K+1} = seed)
    # from order 0 up; errors grow by the same |off / diag| <= 1 per step
    coef = [(a + gamma, 2.0 * a - (a + gamma)), (2.0 * a - (a - beta), a - beta)][: len(bs)]
    diag, off = (np.repeat(col, W.shape[1]) for col in zip(*coef))
    first = np.concatenate([W[-1], W[0]][: len(bs)])
    d = np.hstack([W[-2:0:-1], W[1:-1]][: len(bs)])
    lams = ladder(first / diag, d, diag, off).reshape(K + 1, len(bs), -1)
    # U's and Z U_g's columns are contracted apart, so no value depends on g
    cols = (slice(None, r), slice(r, None)) if g else (slice(None),)
    atoms = []
    for i, (b, (_, of), lam_b) in enumerate(zip(bs, coef, lams.swapaxes(0, 1))):
        lam = np.empty_like(W)
        if i == 0:  # the atom at gamma
            lam[:0:-1] = lam_b
            lam[0] = W[0] - of * lam[1]
            psi = [contract(lam[:, j], S) for j in cols]
        else:
            lam[:-1] = lam_b
            lam[-1] = W[-1] - of * lam[-2]
            psi = [contract(lam[:-1, j], S[1:]) + np.multiply.outer(lam[-1, j], seed) for j in cols]
        U_psi = params.sq2a * psi[0]
        Q_U = phi + b * U_psi
        if not g:
            atoms.append(([*_exp_values(x, b), Q_U, U_psi], []))
            continue
        db = x * U_psi[:g] - params.sq2a * psi[1] / (2.0 * a)
        grads = [*_exp_atoms(x, b), (Q_U[:g], U_psi[:g] + b * db), (U_psi[:g], db)]
        atoms.append(([grads[0][0], grads[1][0], Q_U, U_psi], grads))

    values, d_gamma = _combine(atoms, p, gamma, D, c)
    d_gamma = d_gamma or [np.empty((0,) + x.shape)] * 4
    P, Pstar, Q, Qstar = (Kernel(*pair) for pair in zip(values, d_gamma))
    if np.any(below):
        P, Pstar, Q, Qstar = (
            Kernel(*(np.where(below, 0.0, part) for part in kern)) for kern in (P, Pstar, Q, Qstar)
        )
    return Kernels(P, Q, Pstar, Qstar)


# P and P* need no Laguerre basis: their projections run the evaluator at K = 0
_NO_BASIS = LaguerreParams(1.0, 0)


def _identity_kernels(
    params: LaguerreParams, x, p: float, gamma: float, D: float, c: float, gradient: bool
) -> Kernels:
    """``kernels`` on the identity weights U, whose U^T Q are the rows Q_{0..K}
    themselves; every column is differentiated for a gradient, none for a value."""
    n = params.K + 1
    return kernels(params, x, p, gamma, D, c, np.eye(n), n if gradient else 0)


def eval_P(x, p: float, gamma: float, D: float, c: float):
    """Leading term of W_K (the p f_q = 0 part of the compound-geometric form)."""
    return _identity_kernels(_NO_BASIS, x, p, gamma, D, c, False).P.value


def eval_Pstar(x, p: float, gamma: float, D: float, c: float):
    """int_0^x P; exact antiderivative of eval_P."""
    return _identity_kernels(_NO_BASIS, x, p, gamma, D, c, False).Pstar.value


def eval_Q_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """Q_{alpha,k}(x) for k = 0..K; the kernel applied to each basis function."""
    return _identity_kernels(params, x, p, gamma, D, c, False).Q.value


def eval_Qstar_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """int_0^x Q_{alpha,k}; exact antiderivative of eval_Q_all."""
    return _identity_kernels(params, x, p, gamma, D, c, False).Qstar.value


def _gradient(kern: Kernel, p: float):
    """(d/dp, d/dgamma) of a kernel: the p-derivative is value / (1 - p)."""
    return kern.value / (1.0 - p), kern.d_gamma


def grad_P(x, p: float, gamma: float, D: float, c: float):
    """(d/dp P, d/dgamma P)."""
    return _gradient(_identity_kernels(_NO_BASIS, x, p, gamma, D, c, True).P, p)


def grad_Pstar(x, p: float, gamma: float, D: float, c: float):
    """(d/dp P*, d/dgamma P*)."""
    return _gradient(_identity_kernels(_NO_BASIS, x, p, gamma, D, c, True).Pstar, p)


def grad_Q_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """(d/dp Q_k, d/dgamma Q_k) for k = 0..K."""
    return _gradient(_identity_kernels(params, x, p, gamma, D, c, True).Q, p)


def grad_Qstar_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """(d/dp Q*_k, d/dgamma Q*_k) for k = 0..K."""
    return _gradient(_identity_kernels(params, x, p, gamma, D, c, True).Qstar, p)


@dataclass(frozen=True)
class ScaleApprox:
    """Evaluator bundle for W_K and Z_K given a coefficient set.

    Pure and read-only after construction: safe for concurrent evaluation.
    """

    c: float
    q: float
    coeffs: CoefficientSet

    def kernels(self, x) -> Kernels:
        """The kernels at x contracted with U = a^G and no gamma-derivative
        (g = 0): they give W_K and Z_K."""
        cs = self.coeffs
        return kernels(cs.params, x, cs.p, cs.theta.gamma, cs.theta.D, self.c, cs.a_G[:, None], 0)

    def w_from(self, k: Kernels):
        """W_K(x) = P(x) - Q_{alpha,K}(x) . a^G from ``kernels``."""
        return k.P.value - k.Q.value[0]

    def z_from(self, k: Kernels):
        """Z_K(x) = 1 + q (P*(x) - Q*_{alpha,K}(x) . a^G) from ``kernels``."""
        return 1.0 + self.q * (k.Pstar.value - k.Qstar.value[0])

    def w(self, x):
        return self.w_from(self.kernels(x))

    def z(self, x):
        return self.z_from(self.kernels(x))


def scale_approx(model: LevyModel, params: LaguerreParams) -> ScaleApprox:
    """Build the K-th Laguerre-type approximation of (W, Z) for the model."""
    return ScaleApprox(c=model.c, q=model.q, coeffs=coeffs_true(model, params))
