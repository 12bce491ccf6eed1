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
their analytic (p, gamma) gradients; ``eval_*`` / ``grad_*`` project from it.
The starred kernels are the exact antiderivatives of the unstarred ones, so
Z_K = 1 + q * int_0^x W_K holds identically.

Coefficient functionals: p, a^f_k, a^F_k are nu-integrals of kernels H_p,
H^f_k, H^F_k.  Those kernels are evaluated pointwise through
``laguerre.ladder``, the first-order recurrence in k that also gives Psi.
The module holds only this production path; the quadrature cross-checks of
it (``ftilde_q``, ``h_functionals_quadrature``) live in ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy import integrate, linalg

from .exceptions import DomainError, IllConditionedError, NumericalError
from .laguerre import (
    LaguerreParams, ladder, laguerre_fn_all, psi_integral_all, psi_integral_and_db_all,
)
from .levy import CompoundPoissonExponential, LevyModel, ThetaParams

__all__ = [
    "CoefficientSet",
    "ScaleApprox",
    "p_value",
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
    if model.jumps.is_zero:
        return 0.0
    c, D, gamma = model.c, theta.D, theta.gamma
    if gamma == 0.0:
        return model.jumps.mean() / c
    return float(-model.jumps.exp_functional(gamma) / (gamma * (c + D * gamma)))


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


def _gamma_window_d(gamma: float, z: np.ndarray) -> np.ndarray:
    """d/dgamma of the window (1 - e^{-gamma z})/gamma = _expm1_ratio(-gamma, z)."""
    return -_expm1_ratio_db(-gamma, z)


def h_functionals_at(
    c: float, D: float, gamma: float, params: LaguerreParams, z, d_gamma: bool = False
):
    """(H_p, H^f_{0..K}, H^F_{0..K})(z; D, gamma), shapes ((nz,), (K+1, nz), (K+1, nz)).

    All inner x-integrals are closed forms.  H^f_k = V_k / D, where
    V_k = int_0^z e^{-gamma (z-y)} Utilde_k(y) dy solves the ladder
    (alpha + beta) V_k + (alpha - beta) V_{k-1} = diff(Psi)_k driven by
    Psi_k(z; -gamma).  Scaled by D, with beta D = c + gamma D and
    (alpha + beta) D = beta D + alpha D, it yields V / D directly, contracts
    by |alpha - beta| / (alpha + beta) <= 1 and reduces at D = 0 to the
    bounded-variation kernels (H^f = Psi / c), so no D = 0 branch is needed.

    With ``d_gamma=True`` the result is the pair (values, d/dgamma values) of
    such triples, from the same Psi sweep: the ladders are linear, so their
    gamma-derivatives run the same ladders on d/dgamma Psi = -d/db Psi at
    b = -gamma, plus the terms from d (beta D) / d gamma = D.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    K, alpha = params.K, params.alpha
    sign_sq2a = params.sq2a * np.where(np.arange(K + 1) % 2 == 0, 1.0, -1.0)[:, None]
    kg = _expm1_ratio(-gamma, z)  # (1 - e^{-gamma z}) / gamma
    if d_gamma:
        psi, d_psi = psi_integral_and_db_all(params, z, -gamma)  # (K+1, nz) each
        d_psi = -d_psi
        d_kg = _gamma_window_d(gamma, z)
    else:
        psi = psi_integral_all(params, z, -gamma)  # Psi_k(z; -gamma), (K+1, nz)

    bD = c + gamma * D  # beta D
    sD = bD + alpha * D  # (alpha + beta) D

    def v_over_d(u):
        return ladder(u[0] / sD, np.diff(u, axis=0), sD, alpha * D - bD)

    def s_ladder(u):
        return ladder(u[0] / alpha, np.diff(u, axis=0) / alpha, 1.0, 1.0)

    H_p = kg / bD
    H_f = v_over_d(psi)
    vals = (H_p, H_f, sign_sq2a * kg / (alpha * bD) - s_ladder(H_f))
    if not d_gamma:
        return vals
    # sD and the off-diagonal move by D and -D per unit gamma: the V-ladder's
    # source diff(psi) becomes diff(d_psi - D H_f)
    d_H_f = v_over_d(d_psi - D * H_f)
    d_kgb = d_kg - D * H_p  # beta D * d/dgamma (kg / beta D)
    return vals, (d_kgb / bD, d_H_f, sign_sq2a * d_kgb / (alpha * bD) - s_ladder(d_H_f))


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

    Exponential jumps use the closed exponential-mixture form of p f_q; every
    other family integrates the H-kernels against nu by cubature.
    """
    model.require_npc()
    theta = model.theta0()
    n = params.K + 1
    if model.jumps.is_zero:
        zero = np.zeros(n)
        return CoefficientSet(0.0, zero, zero.copy(), zero.copy(), params, theta)

    if isinstance(model.jumps, CompoundPoissonExponential):
        p, a_f, a_F = _closed_coeffs_exponential(model, theta, params)
    else:
        p = p_value(model, theta)
        a_f, a_F = _quadrature_coeffs(model, theta, params)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p = {p} outside (0,1); NPC or quadrature failure")
    A = build_Af(a_f, params.alpha)
    a_G = solve_aG(A, a_F)
    return CoefficientSet(p, a_f, a_F, a_G, params, theta)


def _lag_transform_exp(rD: float, params: LaguerreParams, D: float = 1.0) -> np.ndarray:
    """<e^{-r x}, phi_{alpha,k}> = sqrt(2a) D/sD * ((sD - 2a D)/sD)^k, sD = (r + alpha) D.

    From r D and D (default 1: r itself), so that at r = beta it takes beta D =
    c + gamma D: exactly 0 at D = 0 and finite for subnormal D.
    """
    sD = rD + params.alpha * D
    ks = np.arange(params.K + 1)
    return params.sq2a * D / sD * ((sD - 2.0 * params.alpha * D) / sD) ** ks


def _lag_transform_xexp(rate: float, params: LaguerreParams) -> np.ndarray:
    """<x e^{-r x}, phi_{alpha,k}> = -d/ds of the pure-exponential transform."""
    a = params.alpha
    s = rate + a
    u = (s - 2.0 * a) / s
    ks = np.arange(params.K + 1)
    main = u**ks / s**2
    corr = 2.0 * a * ks * u ** np.maximum(ks - 1, 0) / s**3
    return params.sq2a * (main - corr)


def _closed_coeffs_exponential(
    model: LevyModel, theta: ThetaParams, params: LaguerreParams
) -> tuple[float, np.ndarray, np.ndarray]:
    """p f_q is a one- or two-exponential mixture for exponential jumps.

    p f_q = C (e^{-mu x} - e^{-beta x}), C = lam mu / ((gamma + mu) D (beta - mu)),
    D (beta - mu) = c + D (gamma - mu).  beta enters only as beta D = c + gamma D, so
    D = 0 is a limit, not a branch; only beta ~ mu, a removable singularity, is.
    """
    jumps = model.jumps
    assert isinstance(jumps, CompoundPoissonExponential)
    lam, mu = jumps.rate, jumps.mu
    gamma, D, c = theta.gamma, theta.D, model.c
    p = p_value(model, theta)
    bD = c + gamma * D  # beta D
    L_mu = _lag_transform_exp(mu, params)
    if abs(c + D * (gamma - mu)) > 1e-8 * max(bD, mu * D):
        C = lam * mu / ((gamma + mu) * (c + D * (gamma - mu)))
        L_b = _lag_transform_exp(bD, params, D)
        a_f = C * (L_mu - L_b)
        a_F = C / mu * L_mu - C * D / bD * L_b  # L(beta) / beta = L(beta) D / (beta D)
    else:
        # beta ~ mu: p f_q = front * x e^{-mu x}, front = lam mu / (D (gamma + mu))
        front = lam * mu / (D * (gamma + mu))
        a_f = front * _lag_transform_xexp(mu, params)
        a_F = front * (_lag_transform_xexp(mu, params) / mu + L_mu / mu**2)
    return p, a_f, a_F


def _quadrature_coeffs(
    model: LevyModel, theta: ThetaParams, params: LaguerreParams
) -> tuple[np.ndarray, np.ndarray]:
    """a^f, a^F by adaptive Gauss-Kronrod cubature of the H-kernels against nu.

    Each rule evaluation hands all of its nodes to one kernel sweep.
    """
    jumps = model.jumps
    n = params.K + 1

    def integrand(zz):
        z = zz[:, 0]
        _, H_f, H_F = h_functionals_at(model.c, theta.D, theta.gamma, params, z)
        return (np.concatenate([H_f, H_F]) * jumps.density(z)).T

    res = integrate.cubature(
        integrand, [0.0], [np.inf], rtol=1e-9, atol=1e-12, max_subdivisions=200
    )
    est, err = res.estimate, float(np.max(res.error))
    scale = max(float(np.max(np.abs(est))), 1.0)
    if res.status != "converged" or err > 1e-6 * scale:
        raise NumericalError("coefficient quadrature did not converge", residual=err)
    return est[:n], est[n:]


# ---------------------------------------------------------------------------
# Kernels P, Q, P*, Q* and the truncated scale functions
# ---------------------------------------------------------------------------

class Kernel(NamedTuple):
    """Kernel values and their partial derivatives in p and gamma."""

    value: np.ndarray
    d_p: np.ndarray
    d_gamma: np.ndarray


class Kernels(NamedTuple):
    """P, P* of shape x.shape and Q, Q* of shape (K+1, *x.shape) at one (p, gamma)."""

    P: Kernel
    Q: Kernel
    Pstar: Kernel
    Qstar: Kernel


def _combine(atom, p: float, gamma: float, D: float, c: float, *rows) -> list[Kernel]:
    """The shared form of every kernel, with its (p, gamma) gradient, split into rows.

    value = (f(gamma) - f(-beta)) / N, beta = c/D + gamma, with the D-scaled
    N = (1-p) (beta + gamma) D = (1-p) (c + 2 gamma D); ``atom(b)`` returns
    (f(b), df/db) for a stack of atoms.  Since d beta / d gamma = 1, the
    gamma-derivative is (f'(gamma) + f'(-beta)) / N - 2 D value / (c + 2 gamma D);
    the p-derivative is value / (1-p).  D = 0 is the limit, not a branch: the
    atom at -beta, not formed there or where c/D overflows, is its own limit
    for x > 0, and it sets W(0) = 0 wherever it is formed.
    """
    if p >= 1.0:
        raise DomainError(f"p = {p} >= 1: compound geometric representation undefined")
    f, df = atom(gamma)
    beta = float(c) / float(D) + gamma if D > 0 else math.inf
    if math.isfinite(beta):
        f_b, df_b = atom(-beta)
        f, df = f - f_b, df + df_b
    s = c + 2.0 * gamma * D  # (beta + gamma) D
    N = (1.0 - p) * s
    value = f / N
    d_gamma = df / N - 2.0 * D * value / s
    return [Kernel(value[r], value[r] / (1.0 - p), d_gamma[r]) for r in rows]


def _exp_atoms(x, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows (P, P*) of the atoms e^{bx}, (e^{bx} - 1)/b and their b-derivatives."""
    x = np.asarray(x, dtype=float)
    e = np.exp(_times(b, x))
    return np.stack([e, _expm1_ratio(b, x)]), np.stack([x * e, _expm1_ratio_db(b, x)])


def _exp_kernels(x, p: float, gamma: float, D: float, c: float) -> list[Kernel]:
    """[P, P*]: the kernels that need no Laguerre basis."""
    return _combine(partial(_exp_atoms, x), p, gamma, D, c, 0, 1)


def kernels(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float) -> Kernels:
    """P, Q_{alpha,0..K}, P*, Q*_{alpha,0..K} at x with their (p, gamma) gradients.

    The Q-atoms are phi_k + b Psi_k(x; b) and the Q*-atoms Psi_k(x; b); each b
    takes Psi and d/db Psi from one order-(K+1) sweep.
    """
    x = np.asarray(x, dtype=float)
    phi = laguerre_fn_all(params, x)

    def atom(b):
        e, d_e = _exp_atoms(x, b)
        psi, d_psi = psi_integral_and_db_all(params, x, b)
        return (
            np.concatenate([e, phi + b * psi, psi]),
            np.concatenate([d_e, psi + b * d_psi, d_psi]),
        )

    n = params.K + 1
    return Kernels(*_combine(atom, p, gamma, D, c, 0, slice(2, n + 2), 1, slice(n + 2, None)))


def eval_P(x, p: float, gamma: float, D: float, c: float):
    """Leading term of W_K (the p f_q = 0 part of the compound-geometric form)."""
    return _exp_kernels(x, p, gamma, D, c)[0].value


def eval_Pstar(x, p: float, gamma: float, D: float, c: float):
    """int_0^x P; exact antiderivative of eval_P."""
    return _exp_kernels(x, p, gamma, D, c)[1].value


def eval_Q_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """Q_{alpha,k}(x) for k = 0..K; the kernel applied to each basis function."""
    return kernels(params, x, p, gamma, D, c).Q.value


def eval_Qstar_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """int_0^x Q_{alpha,k}; exact antiderivative of eval_Q_all."""
    return kernels(params, x, p, gamma, D, c).Qstar.value


def grad_P(x, p: float, gamma: float, D: float, c: float):
    """(d/dp P, d/dgamma P)."""
    return _exp_kernels(x, p, gamma, D, c)[0][1:]


def grad_Pstar(x, p: float, gamma: float, D: float, c: float):
    """(d/dp P*, d/dgamma P*)."""
    return _exp_kernels(x, p, gamma, D, c)[1][1:]


def grad_Q_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """(d/dp Q_k, d/dgamma Q_k) for k = 0..K."""
    return kernels(params, x, p, gamma, D, c).Q[1:]


def grad_Qstar_all(params: LaguerreParams, x, p: float, gamma: float, D: float, c: float):
    """(d/dp Q*_k, d/dgamma Q*_k) for k = 0..K."""
    return kernels(params, x, p, gamma, D, c).Qstar[1:]


@dataclass(frozen=True)
class ScaleApprox:
    """Evaluator bundle for W_K and Z_K given a coefficient set.

    Pure and read-only after construction: safe for concurrent evaluation.
    """

    c: float
    q: float
    coeffs: CoefficientSet

    def kernels(self, x) -> Kernels:
        cs = self.coeffs
        return kernels(cs.params, x, cs.p, cs.theta.gamma, cs.theta.D, self.c)

    def w_from(self, k: Kernels):
        """W_K(x) = P(x) - Q_{alpha,K}(x) . a^G from the kernels at x."""
        return k.P.value - np.tensordot(self.coeffs.a_G, k.Q.value, axes=(0, 0))

    def z_from(self, k: Kernels):
        """Z_K(x) = 1 + q (P*(x) - Q*_{alpha,K}(x) . a^G) from the kernels at x."""
        Qs_aG = np.tensordot(self.coeffs.a_G, k.Qstar.value, axes=(0, 0))
        return 1.0 + self.q * (k.Pstar.value - Qs_aG)

    def w(self, x):
        return self.w_from(self.kernels(x))

    def z(self, x):
        return self.z_from(self.kernels(x))


def scale_approx(model: LevyModel, params: LaguerreParams) -> ScaleApprox:
    """Build the K-th Laguerre-type approximation of (W, Z) for the model."""
    return ScaleApprox(c=model.c, q=model.q, coeffs=coeffs_true(model, params))
