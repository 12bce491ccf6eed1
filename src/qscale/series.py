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
H^f_k, H^F_k.  Those kernels are evaluated pointwise through stable
first-order recurrences in k (same generating-function identity as Psi); a
full nested-quadrature evaluation is retained as a cross-check mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy import integrate, linalg

from .exceptions import DomainError, IllConditionedError, NumericalError
from .laguerre import (
    LaguerreParams,
    laguerre_fn_all,
    partial_sum,
    psi_integral_all,
    psi_integral_and_db_all,
)
from .levy import CompoundPoissonExponential, LevyModel, ThetaParams

__all__ = [
    "CoefficientSet",
    "ScaleApprox",
    "ftilde_q",
    "p_value",
    "h_functionals_at",
    "h_functionals_quadrature",
    "coeffs_true",
    "scale_approx",
    "build_Af",
    "build_B",
    "solve_aG",
    "gbar_partial_sum",
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
# Defective density and its mass
# ---------------------------------------------------------------------------

def _tilted_tail(model: LevyModel, gamma: float, y):
    """g(y) = int_y^inf e^{-gamma (z - y)} nu(dz), closed form per family."""
    from scipy import special

    jumps = model.jumps
    y = np.asarray(y, dtype=float)
    if jumps.is_zero:
        return np.zeros_like(y)
    if isinstance(jumps, CompoundPoissonExponential):
        mu = jumps.mu
        return jumps.rate * mu * np.exp(-mu * y) / (gamma + mu)
    kind = jumps.kind
    if kind == "compound-poisson-gamma":
        a, s = jumps.shape, jumps.scale
        w = gamma + 1.0 / s
        return jumps.rate * np.exp(gamma * y) * special.gammaincc(a, w * y) / (s * w) ** a
    if kind == "gamma-subordinator":
        a, b = jumps.shape, jumps.rate
        return a * np.exp(gamma * y) * special.exp1((b + gamma) * y)
    raise DomainError(f"no closed-form tilted tail for jump kind {kind!r}")


def ftilde_q(model: LevyModel, theta: ThetaParams, x):
    """The defective density ftilde_q(x) (mass p, not normalized).

    D > 0: D^{-1} int_0^x e^{-beta (x-y)} g(y) dy with g the gamma-tilted
    jump tail; D = 0: c^{-1} g(x).
    """
    gamma = theta.gamma
    x_in = np.asarray(x, dtype=float)
    x_arr = np.atleast_1d(x_in)
    if model.jumps.is_zero:
        out = np.zeros_like(x_arr)
        return float(out[0]) if x_in.ndim == 0 else out
    if theta.D == 0:
        out = _tilted_tail(model, gamma, x_arr) / model.c
        return float(out[0]) if x_in.ndim == 0 else out
    beta = theta.beta(model.c)

    def one(xx):
        if xx <= 0:
            return 0.0
        val, _ = integrate.quad(
            lambda y: np.exp(-beta * (xx - y)) * float(_tilted_tail(model, gamma, y)),
            0.0,
            xx,
            limit=200,
            points=[0.0] if model.jumps.total_rate() == np.inf else None,
        )
        return val / theta.D

    out = np.vectorize(one)(x_arr)
    return float(out[0]) if x_in.ndim == 0 else out


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

def _gamma_window(gamma: float, z: np.ndarray) -> np.ndarray:
    """(1 - e^{-gamma z}) / gamma with the gamma -> 0 limit z."""
    if abs(gamma) < 1e-10:
        return z.copy()
    return -np.expm1(-gamma * z) / gamma


def h_functionals_at(
    c: float, D: float, gamma: float, params: LaguerreParams, z
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_p, H^f_{0..K}, H^F_{0..K})(z; D, gamma), shapes ((nz,), (K+1, nz), (K+1, nz)).

    gamma may dip slightly negative (the covariance machinery's finite
    differences in gamma).  All inner x-integrals are closed forms; the
    k-ladders below are first-order recurrences with contraction factor
    |alpha - beta| / (alpha + beta) < 1 (D > 0 branch).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    K, alpha = params.K, params.alpha
    sq2a = params.sq2a
    ks = np.arange(K + 1)
    sign = np.where(ks % 2 == 0, 1.0, -1.0)[:, None]
    kg = _gamma_window(gamma, z)[None, :]
    psi_neg = psi_integral_all(params, z, -gamma)  # Psi_k(z; -gamma), (K+1, nz)

    if D == 0:
        H_p = kg[0] / c
        H_f = psi_neg / c
        S0 = np.empty_like(psi_neg)
        S0[0] = psi_neg[0] / alpha
        for k in range(1, K + 1):
            S0[k] = -S0[k - 1] + (psi_neg[k] - psi_neg[k - 1]) / alpha
        H_F = (sign * sq2a * kg / alpha - S0) / c
        return H_p, H_f, H_F

    beta = c / D + gamma
    st = alpha + beta
    H_p = kg[0] / (beta * D)
    # V_k = int_0^z e^{-gamma (z-y)} Utilde_k(y) dy (scaled by sqrt(2 alpha))
    V = np.empty_like(psi_neg)
    V[0] = psi_neg[0] / st
    for k in range(1, K + 1):
        V[k] = (-(2.0 * alpha - st) * V[k - 1] + (psi_neg[k] - psi_neg[k - 1])) / st
    H_f = V / D
    S = np.empty_like(psi_neg)
    S[0] = psi_neg[0] / (alpha * st)
    for k in range(1, K + 1):
        S[k] = -S[k - 1] + (V[k] - V[k - 1]) / alpha
    H_F = (sign * sq2a * kg / (alpha * beta) - S) / D
    return H_p, H_f, H_F


def h_functionals_quadrature(
    c: float, theta: ThetaParams, params: LaguerreParams, z: float, k: int
) -> tuple[float, float, float]:
    """Nested-quadrature evaluation of (H_p, H^f_k, H^F_k)(z; theta).

    Slow cross-check of the recurrence path (one z, one order at a time).
    """
    gamma, D = theta.gamma, theta.D
    phi = lambda x: laguerre_fn_all(params, x, kmax=k)[k]
    psi0 = lambda x: psi_integral_all(params, x, 0.0, kmax=k)[k]
    if D == 0:
        H_p, _ = integrate.quad(lambda x: np.exp(-gamma * (z - x)), 0.0, z)
        H_f, _ = integrate.quad(lambda x: np.exp(-gamma * (z - x)) * phi(x), 0.0, z, limit=200)
        H_F, _ = integrate.quad(lambda x: np.exp(-gamma * (z - x)) * psi0(x), 0.0, z, limit=200)
        return H_p / c, H_f / c, H_F / c
    beta = theta.beta(c)

    def outer(inner_fn):
        def dy(y):
            val, _ = integrate.quad(
                lambda x: np.exp(-beta * (x - y)) * inner_fn(x), y, np.inf, limit=200
            )
            return np.exp(-gamma * (z - y)) * val

        val, _ = integrate.quad(dy, 0.0, z, limit=200)
        return val / D

    return outer(lambda x: 1.0), outer(phi), outer(psi0)


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

    Raises IllConditionedError when a diagonal entry is below 1e-10 in
    magnitude (signals p f_q mass concentration), NumericalError if the
    final residual exceeds 1e-12 * |a_F|_inf.
    """
    A = np.asarray(A, dtype=float)
    a_F = np.asarray(a_F, dtype=float)
    min_diag = np.min(np.abs(np.diag(A)))
    if min_diag < _DIAG_FLOOR:
        raise IllConditionedError(f"triangular system near-singular: min |diag| = {min_diag:.3e}")
    x = linalg.solve_triangular(A, a_F, lower=True, check_finite=False)
    scale = max(float(np.max(np.abs(a_F))), 1e-300)
    resid = float(np.max(np.abs(A @ x - a_F)))
    if resid > _SOLVE_RTOL * scale:
        raise NumericalError("triangular solve residual above tolerance", residual=resid)
    return x


def coeffs_true(
    model: LevyModel, params: LaguerreParams, method: str = "auto"
) -> CoefficientSet:
    """Population coefficients (p, a^f, a^F, a^G) at theta0 = (D, Phi(q)).

    method: 'closed' uses the exponential-mixture form of p f_q (exponential
    jump family only); 'quadrature' integrates the H-kernels against nu;
    'auto' picks closed where available.
    """
    model.require_npc()
    theta = model.theta0()
    n = params.K + 1
    if model.jumps.is_zero:
        zero = np.zeros(n)
        return CoefficientSet(0.0, zero, zero.copy(), zero.copy(), params, theta)

    if method == "auto":
        method = (
            "closed" if isinstance(model.jumps, CompoundPoissonExponential) else "quadrature"
        )
    if method == "closed":
        p, a_f, a_F = _closed_coeffs_exponential(model, theta, params)
    elif method == "quadrature":
        p = p_value(model, theta)
        a_f, a_F = _quadrature_coeffs(model, theta, params)
    else:
        raise ValueError(f"unknown coefficient method {method!r}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p = {p} outside (0,1); NPC or quadrature failure")
    A = build_Af(a_f, params.alpha)
    a_G = solve_aG(A, a_F)
    return CoefficientSet(p, a_f, a_F, a_G, params, theta)


def _lag_transform_exp(rate: float, params: LaguerreParams) -> np.ndarray:
    """<e^{-r x}, phi_{alpha,k}> = sqrt(2a)/s * ((s-2a)/s)^k, s = r + alpha."""
    s = rate + params.alpha
    ks = np.arange(params.K + 1)
    return params.sq2a / s * ((s - 2.0 * params.alpha) / s) ** ks


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
    """p f_q is a one- or two-exponential mixture for exponential jumps."""
    jumps = model.jumps
    assert isinstance(jumps, CompoundPoissonExponential)
    lam, mu = jumps.rate, jumps.mu
    gamma, D, c = theta.gamma, theta.D, model.c
    p = p_value(model, theta)
    if D == 0:
        w = lam * mu / (c * (gamma + mu))
        a_f = w * _lag_transform_exp(mu, params)
        a_F = (w / mu) * _lag_transform_exp(mu, params)
        return p, a_f, a_F
    beta = theta.beta(c)
    front = lam * mu / (D * (gamma + mu))
    if abs(beta - mu) > 1e-8 * max(beta, mu):
        C = front / (beta - mu)
        a_f = C * (_lag_transform_exp(mu, params) - _lag_transform_exp(beta, params))
        a_F = C * (
            _lag_transform_exp(mu, params) / mu - _lag_transform_exp(beta, params) / beta
        )
    else:
        # beta ~ mu: p f_q = front * x e^{-mu x}
        a_f = front * _lag_transform_xexp(mu, params)
        a_F = front * (
            _lag_transform_xexp(mu, params) / mu + _lag_transform_exp(mu, params) / mu**2
        )
    return p, a_f, a_F


def _quadrature_coeffs(
    model: LevyModel, theta: ThetaParams, params: LaguerreParams
) -> tuple[np.ndarray, np.ndarray]:
    """a^f, a^F by adaptive quadrature of the H-kernels against nu."""
    jumps = model.jumps
    n = params.K + 1

    def integrand(z):
        zz = np.asarray([z], dtype=float)
        _, H_f, H_F = h_functionals_at(model.c, theta.D, theta.gamma, params, zz)
        return np.concatenate([H_f[:, 0], H_F[:, 0]]) * float(jumps.density(zz)[0])

    res, err = integrate.quad_vec(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-9, limit=200)
    scale = max(float(np.max(np.abs(res))), 1.0)
    if err > 1e-6 * scale:
        raise NumericalError("coefficient quadrature did not converge", residual=float(err))
    return res[:n], res[n:]


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

    D > 0: (f(gamma) - f(-beta)) / N with N = D (1-p) (beta + gamma) and
    beta = c/D + gamma; D = 0: f(gamma) / N with N = c (1-p).  ``atom(b)``
    returns (f(b), df/db) for a stack of atoms.  Since d beta / d gamma = 1,
    the gamma-derivative is (f'(gamma) + f'(-beta)) / N - 2 value / (beta + gamma),
    or f'(gamma) / N for D = 0; the p-derivative is value / (1-p).
    """
    if p >= 1.0:
        raise DomainError(f"p = {p} >= 1: compound geometric representation undefined")
    f, df = atom(gamma)
    if D > 0:
        beta = c / D + gamma
        f_b, df_b = atom(-beta)
        N = D * (1.0 - p) * (beta + gamma)
        value = (f - f_b) / N
        d_gamma = (df + df_b) / N - 2.0 * value / (beta + gamma)
    else:
        N = c * (1.0 - p)
        value = f / N
        d_gamma = df / N
    return [Kernel(value[r], value[r] / (1.0 - p), d_gamma[r]) for r in rows]


def _exp_atoms(x, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows (P, P*) of the atoms e^{bx}, (e^{bx} - 1)/b and their b-derivatives.

    The starred atom takes its b -> 0 limits x and x^2 / 2 for |b| < 1e-10.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(b * x)
    if abs(b) < 1e-10:
        star, d_star = x, 0.5 * x * x
    else:
        star = np.expm1(b * x) / b
        d_star = (x * e - star) / b
    return np.stack([e, star]), np.stack([x * e, d_star])


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


def scale_approx(model: LevyModel, params: LaguerreParams, method: str = "auto") -> ScaleApprox:
    """Build the K-th Laguerre-type approximation of (W, Z) for the model."""
    return ScaleApprox(c=model.c, q=model.q, coeffs=coeffs_true(model, params, method=method))


def gbar_partial_sum(coeffs: CoefficientSet, x):
    """Truncated compound-geometric tail Gbar_{q,K}(x) = sum_k a^G_k phi_k(x)."""
    return partial_sum(coeffs.a_G, coeffs.params, x)
