"""Independent ground-truth generators for the scale-function pipeline.

Three routes that never touch the Laguerre expansion:

* fixed-Talbot numerical inversion (32 nodes) of the defining transform
  1/(psi - q) at the model's q, contour shifted right of the Lundberg root so
  every singularity of the (analytically continued) transform is enclosed;
* the compound geometric distribution built directly on a grid by marching
  the defective renewal equation;
* ``residue_scale``: W and Z exact to rounding wherever psi is rational
  (no jumps, exponential jumps, gamma jumps of integer shape), as a sum of
  residues over the roots of psi - q.

A last section holds the quadrature cross-checks of the series path, which
only tests call: the defective density ``ftilde_q`` by quadrature of the
tilted jump tail, the kernels H_p, H^f_k, H^F_k per jump with their
gamma-derivatives (``h_functionals_per_jump``), the population coefficients
a^f, a^F by cubature of those kernels against nu (``coeffs_quadrature``),
grid projections onto the Laguerre basis (``project_grid``) and the adaptive
quadrature of nu(H) (``nu_functional_exact``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import Polynomial
from scipy import integrate, special

from .exceptions import DomainError, GridTooCoarseError, NumericalError
from .laguerre import LaguerreParams, laguerre_fn_all, psi_integral_and_db_all
from .levy import (
    CompoundPoissonExponential, CompoundPoissonGamma, GammaSubordinator, LevyModel, NoJumps,
    ThetaParams, laplace_exponent, laplace_exponent_deriv, lundberg_exponent,
)
from .series import gamma_window, h_functionals_at

__all__ = [
    "TalbotResult",
    "laplace_invert_scale",
    "GridDistribution",
    "compound_geometric_grid",
    "residue_scale",
    "ftilde_q",
    "h_functionals_per_jump",
    "coeffs_quadrature",
    "ProjectionResult",
    "project_grid",
    "nu_functional_exact",
]


# Talbot nodes: the truncation error ~10^{-0.6 M} is already far below double
# precision at M = 32, while roundoff grows like e^{2M/5} * eps, so larger M
# strictly degrades the result.
_TALBOT_M = 32
# node-doubling error estimate, relative to max(1, |W|), above which a value is flagged
_TALBOT_TOL = 1e-6


class TalbotResult(NamedTuple):
    value: float
    error_estimate: float
    flagged: bool


def _talbot_sum(F, x: float, M: int) -> float:
    """Fixed-Talbot quadrature of the Bromwich integral at time x.

    Contour s(phi) = r phi (cot phi + i), phi in (-pi, pi), r = 2M/(5x).
    """
    r = 2.0 * M / (5.0 * x)
    phi = np.arange(1, M) * np.pi / M
    cot = 1.0 / np.tan(phi)
    s = r * phi * (cot + 1j)
    sigma = phi + (phi * cot - 1.0) * cot
    terms = np.exp(x * s) * F(s) * (1.0 + 1j * sigma)
    total = 0.5 * np.exp(r * x) * np.real(F(np.complex128(r))) + np.sum(np.real(terms))
    return float(r / M * total)


def laplace_invert_scale(model: LevyModel, x: float) -> TalbotResult:
    """W^(q)(x), q = model.q, by fixed-Talbot inversion of theta -> 1/(psi(theta) - q).

    The transform is inverted after shifting by a = Phi(q), which moves the
    rightmost singularity to the origin (enclosed by the Talbot contour) and
    every other pole / branch cut onto the negative real axis, which the
    contour wraps around.  Returns the M = _TALBOT_M node value together with a
    node-doubling error estimate |W_M - W_{M/2}|; `flagged` is set instead of
    raising when the estimate exceeds _TALBOT_TOL * max(1, |W|).
    """
    if x <= 0:
        raise DomainError(f"inversion requires x > 0, got x = {x}")
    q = model.q
    a = lundberg_exponent(model, q)  # also enforces NPC (pole location sanity)

    def F(u):
        return 1.0 / (laplace_exponent(model, a + u) - q)

    shift = float(np.exp(a * x))
    v_half = shift * _talbot_sum(F, x, _TALBOT_M // 2)
    v = shift * _talbot_sum(F, x, _TALBOT_M)
    err = abs(v - v_half)
    return TalbotResult(
        value=v, error_estimate=err, flagged=err > _TALBOT_TOL * max(1.0, abs(v))
    )


@dataclass(frozen=True)
class GridDistribution:
    """Compound geometric distribution on a uniform grid.

    The atom at zero (mass 1 - p) is carried explicitly and never smeared
    onto the grid; `density` covers the absolutely continuous part and
    `tail` stores Gbar(x_i) = 1 - G(x_i) with Gbar(0) = p.
    """

    h: float
    atom: float
    density: np.ndarray
    tail: np.ndarray

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("grid step h must be > 0")
        mass = self.atom + float(np.trapezoid(self.density, dx=self.h))
        if not 1.0 - 1e-6 <= mass <= 1.0 + 1e-6:
            raise GridTooCoarseError(
                "compound geometric grid mass outside [1-1e-6, 1+1e-6]",
                residual=abs(mass - 1.0),
            )

    @property
    def x(self) -> np.ndarray:
        return np.arange(len(self.tail)) * self.h

    def tail_at(self, x) -> np.ndarray:
        """Gbar at arbitrary points by linear interpolation (0 beyond the grid)."""
        return np.interp(np.asarray(x, dtype=float), self.x, self.tail, right=0.0)


def compound_geometric_grid(f_vals: np.ndarray, p: float, h: float) -> GridDistribution:
    """Solve the defective renewal equation Gbar = p Fbar + p f * Gbar by marching.

    `f_vals` samples the (normalized) density f_q on the uniform grid
    0, h, 2h, ...; trapezoid weights are used both for Fbar and for the
    convolution.  The input mass must be within 1e-4 of one, else the grid
    is rejected as too coarse; the stored density is renormalized so the
    total mass (atom + trapezoid of density) is exact.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"compound geometric requires p in (0,1), got {p}")
    f_vals = np.asarray(f_vals, dtype=float)
    if np.any(f_vals < -1e-12):
        raise DomainError("density values must be nonnegative")
    n = len(f_vals)
    f_mass = float(np.trapezoid(f_vals, dx=h))
    if abs(f_mass - 1.0) > 1e-4:
        raise GridTooCoarseError(
            "input density mass deviates from 1 beyond 1e-4", residual=abs(f_mass - 1.0)
        )

    # Fbar on the grid (trapezoid cumulative)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (f_vals[1:] + f_vals[:-1]))])
    Fbar = 1.0 - cum / f_mass
    f = f_vals / f_mass

    # March Gbar_i = p Fbar_i + p h [ f_0 Gbar_i / 2 + sum_{0<j<i} f_j Gbar_{i-j}
    #                                + f_i Gbar_0 / 2 ]
    Gbar = np.empty(n)
    Gbar[0] = p
    lead = 1.0 - 0.5 * p * h * f[0]
    f_rev = f[::-1]
    for i in range(1, n):
        mid = np.dot(f[1:i], Gbar[i - 1 : 0 : -1]) if i >= 2 else 0.0
        Gbar[i] = (p * Fbar[i] + p * h * (mid + 0.5 * f[i] * Gbar[0])) / lead

    # Density of the a.c. part: g = p (1-p) f + p f * g, same marching kernel
    g = np.empty(n)
    g[0] = p * (1.0 - p) * f[0] / lead
    for i in range(1, n):
        mid = np.dot(f[1:i], g[i - 1 : 0 : -1]) if i >= 2 else 0.0
        g[i] = (p * (1.0 - p) * f[i] + p * h * (mid + 0.5 * f[i] * g[0])) / lead
    g_mass = float(np.trapezoid(g, dx=h))
    if abs(g_mass - p) > 1e-4:
        raise GridTooCoarseError(
            "compound geometric density mass deviates from p beyond 1e-4",
            residual=abs(g_mass - p),
        )
    g *= p / g_mass  # total mass (atom + density) is then exactly 1

    return GridDistribution(h=h, atom=1.0 - p, density=g, tail=Gbar)


def _rational_exp_functional(jumps) -> tuple[Polynomial, Polynomial]:
    """Polynomials (N, d) with nu(e^{-theta z} - 1) = N(theta) / d(theta), where it is rational."""
    if isinstance(jumps, NoJumps):
        return Polynomial([0.0]), Polynomial([1.0])
    if isinstance(jumps, CompoundPoissonExponential):
        return Polynomial([0.0, -jumps.rate]), Polynomial([jumps.mu, 1.0])
    if isinstance(jumps, CompoundPoissonGamma) and float(jumps.shape).is_integer():
        d = Polynomial([1.0, jumps.scale]) ** int(jumps.shape)
        return jumps.rate * (1.0 - d), d
    raise DomainError(f"psi is not rational for {jumps!r}")


# the root -c/D-ish of a small D is split off when it is this many times the
# bound on the other roots
_SPLIT_RATIO = 1e4


def _split_large_root(P: Polynomial):
    """(u, R) with P = (1 - u theta) R: u = 1/rho for the root rho of largest modulus,
    when it is far beyond the others, else (None, P).

    With a small leading coefficient p_n (a small D), rho ~ -p_{n-1}/p_n and the
    others lie within Cauchy's bound of the polynomial without it.  Companion
    eigenvalues are accurate to eps times the largest |root| only, and
    p_{n-1}/p_n overflows below D ~ 1e-308, so u is Newton's root near 0 of
    the reversed polynomial and R the deflation p_j + u r_{j-1}, stable from
    the constant term up for the largest root.
    """
    p = P.coef
    n = len(p) - 1
    bound = 1.0 + np.max(np.abs(p[:-2]), initial=0.0) / abs(p[-2]) if n > 1 else 1.0
    if not abs(p[-1]) * bound * _SPLIT_RATIO < abs(p[-2]):
        return None, P
    rev = Polynomial(p[::-1])
    u = -p[-1] / p[-2]
    for _ in range(3):
        u -= rev(u) / rev.deriv()(u)
    r = np.empty(n)
    r[0] = p[0]
    for j in range(1, n):
        r[j] = p[j] + u * r[j - 1]
    return u, Polynomial(r)


def residue_scale(model: LevyModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Exact (W^(q), Z^(q)) at x, q = model.q, for a rational psi: a residue sum.

    With nu(e^{-theta z} - 1) = N / d, the transform 1/(psi - q) is d / P with
    P = (D theta^2 + c theta - q) d + N, of higher degree than d; at each
    simple root r_i of P the residue d(r_i) / P'(r_i) is 1/psi'(r_i), so

        W(x) = sum_i e^{r_i x} / psi'(r_i),
        Z(x) = 1 + q sum_i (e^{r_i x} - 1) / (r_i psi'(r_i))   (Z = 1 at q = 0)

    for x >= 0, and W = 0, Z = 1 for x < 0 (Kuznetsov, Kyprianou & Rivero
    2012, Levy Matters II; Egami & Yamazaki 2014, J. Comput. Appl. Math. 264).
    psi is rational for ``NoJumps``, compound Poisson exponential and
    compound Poisson gamma with integer shape; the roots are companion-matrix
    eigenvalues, each polished by one Newton step on P.  A small D puts one
    root near -c/D, beyond the others by up to ~1e308 or past the doubles:
    it is carried as its reciprocal u (``_split_large_root``), with
    e^{r x} = e^{x/u} and psi'(r) = -rev_P'(u) / rev_d(u) from the reversed
    polynomials.  Raises DomainError for any other family and for a repeated
    root (two roots closer than 1e-6 of the larger modulus).
    """
    x = np.asarray(x, dtype=float)
    below = x < 0.0
    x = np.where(below, 0.0, x)
    N, d = _rational_exp_functional(model.jumps)
    P = Polynomial([-model.q, model.c, model.D]) * d + N
    u, R = _split_large_root(P)
    r = R.roots().astype(complex)
    size = np.abs(r)
    gap = np.abs(np.subtract.outer(r, r)) + np.diag(np.full(len(r), np.inf))
    if np.any(gap <= 1e-6 * np.maximum.outer(size, size)):
        raise DomainError(f"psi - q has a repeated root among {r}")
    r -= P(r) / P.deriv()(r)
    res = 1.0 / laplace_exponent_deriv(model, r)
    rx = np.multiply.outer(x, r)
    W = (np.exp(rx) @ res).real
    Zsum = (np.expm1(rx) @ (res / r)).real if model.q != 0.0 else 0.0
    if u is not None:
        res_u = -Polynomial(d.coef[::-1])(u) / Polynomial(P.coef[::-1]).deriv()(u)
        # r x = x/u with u < 0, -inf past the doubles (u may underflow to 0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ux = np.where(x > 0.0, -x / abs(u), 0.0)
        W = W + np.exp(ux) * res_u
        if model.q != 0.0:
            Zsum = Zsum + u * np.expm1(ux) * res_u
    W = np.where(below, 0.0, W)
    Z = np.where(below, 1.0, 1.0 + model.q * Zsum)
    return W, Z


# ---------------------------------------------------------------------------
# Quadrature cross-checks of the series path
# ---------------------------------------------------------------------------

def _tilted_tail(model: LevyModel, gamma: float, y):
    """g(y) = int_y^inf e^{-gamma (z - y)} nu(dz), closed form per family."""
    jumps = model.jumps
    y = np.asarray(y, dtype=float)
    if isinstance(jumps, NoJumps):
        return np.zeros_like(y)
    if isinstance(jumps, CompoundPoissonExponential):
        mu = jumps.mu
        return jumps.rate * mu * np.exp(-mu * y) / (gamma + mu)
    if isinstance(jumps, CompoundPoissonGamma):
        a, s = jumps.shape, jumps.scale
        w = gamma + 1.0 / s
        return jumps.rate * np.exp(gamma * y) * special.gammaincc(a, w * y) / (s * w) ** a
    if isinstance(jumps, GammaSubordinator):
        a, b = jumps.shape, jumps.rate
        return a * np.exp(gamma * y) * special.exp1((b + gamma) * y)
    raise DomainError(f"no closed-form tilted tail for {type(jumps).__name__}")


def ftilde_q(model: LevyModel, theta: ThetaParams, x):
    """The defective density ftilde_q(x) (mass p, not normalized).

    D > 0: D^{-1} int_0^x e^{-beta (x-y)} g(y) dy with g the gamma-tilted
    jump tail; D = 0: c^{-1} g(x).
    """
    gamma = theta.gamma
    x_in = np.asarray(x, dtype=float)
    x_arr = np.atleast_1d(x_in)
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
            # the gamma subordinator's tail has a log singularity at y = 0
            points=[0.0] if isinstance(model.jumps, GammaSubordinator) else None,
        )
        return val / theta.D

    out = np.vectorize(one)(x_arr)
    return float(out[0]) if x_in.ndim == 0 else out


def h_functionals_per_jump(c: float, D: float, gamma: float, params: LaguerreParams, z):
    """(H_p, H^f_{0..K}, H^F_{0..K})(z; D, gamma) per jump size, and their gamma-derivatives.

    Returns the pair (values, d/dgamma values) of such triples, shapes
    ((nz,), (K+1, nz), (K+1, nz)): ``series.h_functionals_at`` on per-jump
    sources, the stack the estimators never form.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    psi, d_psi = psi_integral_and_db_all(params, z, -gamma)
    kg, d_kg = gamma_window(gamma, z)
    H_p, H_f, H_F = h_functionals_at(c, D, gamma, params, psi, kg)
    return (H_p, H_f, H_F), h_functionals_at(c, D, gamma, params, -d_psi - D * H_f, d_kg - D * H_p)


def coeffs_quadrature(model: LevyModel, params: LaguerreParams) -> tuple[np.ndarray, np.ndarray]:
    """a^f, a^F at theta0 by adaptive Gauss-Kronrod cubature of the H-kernels against nu.

    Reference for ``series.coeffs_true`` on the families without a closed
    form.  Each rule evaluation hands all of its nodes to one kernel sweep.
    The map z = (1 - t) / t of [0, inf) can round a node to z = 0, where
    H = 0 and an infinite-activity density is infinite; that node adds 0.
    """
    jumps, theta = model.jumps, model.theta0()
    n = params.K + 1

    def integrand(zz):
        z = zz[:, 0]
        _, H_f, H_F = h_functionals_per_jump(model.c, theta.D, theta.gamma, params, z)[0]
        rho = np.zeros_like(z)
        rho[z > 0] = jumps.density(z[z > 0])
        return (np.concatenate([H_f, H_F]) * rho).T

    res = integrate.cubature(
        integrand, [0.0], [np.inf], rtol=1e-12, atol=1e-14, max_subdivisions=200
    )
    est, err = res.estimate, float(np.max(res.error))
    scale = max(float(np.max(np.abs(est))), 1.0)
    if res.status != "converged" or err > 1e-6 * scale:
        raise NumericalError("coefficient quadrature did not converge", residual=err)
    return est[:n], est[n:]


class ProjectionResult(NamedTuple):
    value: float
    tail_bound: float


def project_grid(
    xgrid: np.ndarray,
    fvals: np.ndarray,
    params: LaguerreParams,
    k: int,
    tail_mass: float = 0.0,
) -> ProjectionResult:
    """<f, phi_{alpha,k}> by composite Simpson on a uniform grid.

    `tail_mass` is the caller's estimate of int_{x_max}^inf |f|; the reported
    tail bound is sqrt(2 alpha) * tail_mass (the basis sup bound).
    """
    xgrid = np.asarray(xgrid, dtype=float)
    fvals = np.asarray(fvals, dtype=float)
    if xgrid.shape != fvals.shape:
        raise ValueError("xgrid and fvals must have matching shapes")
    phi = laguerre_fn_all(params, xgrid, kmax=k)[k]
    value = float(integrate.simpson(fvals * phi, x=xgrid))
    return ProjectionResult(value=value, tail_bound=params.sq2a * abs(tail_mass))


def nu_functional_exact(
    model: LevyModel,
    H: Callable[[np.ndarray], np.ndarray],
    rtol: float = 1e-10,
) -> np.ndarray | float:
    """Adaptive quadrature of nu(H) = integral of H dnu over (0, inf).

    Test oracle for the closed-form functionals and for the threshold
    estimators.  H may be vector-valued (returns an array per point).
    Non-convergence raises NumericalError carrying the achieved estimate.
    """
    jumps = model.jumps

    def integrand(z):
        zz = np.asarray([z], dtype=float)
        return np.asarray(H(zz), dtype=float)[..., 0] * jumps.density(zz)[0]

    res, err = integrate.quad_vec(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=rtol, limit=200)
    scale = max(float(np.max(np.abs(res))), 1e-300)
    if err > 10.0 * rtol * max(scale, 1.0):
        raise NumericalError("nu-functional quadrature did not converge", residual=float(err))
    return res
