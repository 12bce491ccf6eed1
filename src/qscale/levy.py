"""Spectrally negative Levy model and its analytic primitives.

The process is ``X_t = x0 + c*t + sigma*W_t - L_t`` with ``L`` a subordinator
whose Levy measure ``nu`` lives on (0, inf).  Everything downstream reads the
model through its Laplace exponent

    psi(theta) = c*theta + D*theta^2 + nu(e^{-theta z} - 1),    D = sigma^2/2,

its derivative, and the Lundberg root ``Phi(q) = sup{theta >= 0: psi(theta) = q}``.
``convex_root`` finds that root and the estimator's gamma_hat, both roots of
a convex function, by Newton's method from the right.

A jump measure is one class per parametric family: its closed-form
functionals (density, mean, exponential functional and moment), its sampler
``draw_jumps``, and its config name, the class constant ``kind``.  No jumps
is the zero measure, ``NoJumps``, a family like the others.
The generic quadrature of nu(H), ``nu_functional_exact``, is a cross-check
and lives in ``oracles``; the JSON ``model`` block is parsed in ``config``.
Only the gamma-subordinator sampler needs a special function beyond
``math`` (E1), and it imports ``scipy.special`` when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .exceptions import DomainError, NumericalError

__all__ = [
    "JumpMeasure",
    "NoJumps",
    "CompoundPoissonExponential",
    "CompoundPoissonGamma",
    "GammaSubordinator",
    "LevyModel",
    "ThetaParams",
    "laplace_exponent",
    "laplace_exponent_deriv",
    "lundberg_exponent",
    "convex_root",
    "quadratic_bracket",
    "check_npc",
]

# cap on the Newton steps of every root (see convex_root); Phi(q) and
# gamma_hat take 3 and 5 to 8 on average
_ROOT_MAXITER = 100


class JumpMeasure:
    """Base class for the jump measure ``nu`` of the subordinator ``L``.

    Subclasses provide, in closed form, the four functionals the pipeline
    reads: the density per unit time, the mean ``nu(z)``, and the exponential
    functional ``nu(e^{-theta z} - 1)`` and moment ``nu(z e^{-theta z})``
    behind psi, psi' and Phi(q).  The exponential forms accept complex
    ``theta`` (needed by the Talbot oracle).  Each family also draws its
    jumps (``draw_jumps``).  ``kind`` is the family's name in the config, a
    class constant, not a field.
    """

    kind: ClassVar[str]

    def density(self, z):
        """Levy density rho(z), z > 0."""
        raise NotImplementedError

    def mean(self) -> float:
        """nu(z), finite for every supported family."""
        raise NotImplementedError

    def exp_functional(self, theta):
        """nu(e^{-theta z} - 1); analytic in theta, complex-capable."""
        raise NotImplementedError

    def exp_moment(self, theta):
        """nu(z e^{-theta z}), so that psi'(theta) = c + 2 D theta - exp_moment."""
        raise NotImplementedError

    def draw_jumps(self, scheme, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
        """Simulated jumps on [0, T] of a ``simulate.SamplingScheme``: sorted
        times, sizes, and the drift that stands in for the jumps not simulated
        (0 when all are)."""
        raise NotImplementedError


def _log1p(z):
    """log(1 + z), to full relative accuracy also for complex z.

    numpy's complex log1p is the plain log(1 + z), which loses about eps/|z|
    near 0.  Complex z with |z| < 1/2 take 2 atanh(z / (2 + z)) instead,
    exact there; beyond, the plain form is exact, and the atanh form is not
    near the branch point z = -1.  Real z keep np.log1p.
    """
    out = np.log1p(z)
    if np.iscomplexobj(z):
        z, out = np.asarray(z), np.asarray(out)
        near0 = np.abs(z) < 0.5
        out[near0] = 2.0 * np.arctanh(z[near0] / (2.0 + z[near0]))
    return out


def _poisson_times(mean: float, T: float, rng: np.random.Generator) -> np.ndarray:
    """A Poisson(mean) count of uniform times on [0, T], sorted."""
    count = int(rng.poisson(mean))
    return np.sort(rng.uniform(0.0, T, size=count))


@dataclass(frozen=True)
class NoJumps(JumpMeasure):
    """The zero measure: purely Gaussian model."""

    kind: ClassVar[str] = "none"

    def density(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def mean(self) -> float:
        return 0.0

    def exp_functional(self, theta):
        return np.zeros_like(np.asarray(theta)) if np.ndim(theta) else 0.0 * theta

    def exp_moment(self, theta):
        return np.zeros_like(np.asarray(theta)) if np.ndim(theta) else 0.0 * theta

    def draw_jumps(self, scheme, rng):
        """A compound Poisson count of rate 0: no jumps, and no draw from ``rng``."""
        times = _poisson_times(0.0, scheme.T, rng)
        return times, np.empty(0), 0.0


@dataclass(frozen=True)
class CompoundPoissonExponential(JumpMeasure):
    """Compound Poisson jumps, Exp(mu)-distributed sizes with mean 1/mu.

    nu(dz) = rate * mu * e^{-mu z} dz.
    """

    kind: ClassVar[str] = "compound-poisson-exponential"
    rate: float
    jump_mean: float

    def __post_init__(self):
        if self.rate <= 0 or self.jump_mean <= 0:
            raise DomainError("compound-poisson-exponential requires rate > 0 and jump_mean > 0")

    @property
    def mu(self) -> float:
        return 1.0 / self.jump_mean

    def density(self, z):
        z = np.asarray(z, dtype=float)
        return self.rate * self.mu * np.exp(-self.mu * z)

    def mean(self) -> float:
        return self.rate * self.jump_mean

    def exp_functional(self, theta):
        return -self.rate * theta / (self.mu + theta)

    def exp_moment(self, theta):
        return self.rate * self.mu / (self.mu + theta) ** 2

    def draw_jumps(self, scheme, rng):
        times = _poisson_times(self.rate * scheme.T, scheme.T, rng)
        return times, rng.exponential(self.jump_mean, size=len(times)), 0.0


@dataclass(frozen=True)
class CompoundPoissonGamma(JumpMeasure):
    """Compound Poisson jumps with Gamma(shape, scale) sizes.

    nu(dz) = rate * z^{shape-1} e^{-z/scale} / (Gamma(shape) scale^shape) dz.
    """

    kind: ClassVar[str] = "compound-poisson-gamma"
    rate: float
    shape: float
    scale: float

    def __post_init__(self):
        if self.rate <= 0 or self.shape <= 0 or self.scale <= 0:
            raise DomainError("compound-poisson-gamma requires rate, shape, scale > 0")

    def density(self, z):
        z = np.asarray(z, dtype=float)
        a, s = self.shape, self.scale
        return self.rate * z ** (a - 1.0) * np.exp(-z / s) / (math.gamma(a) * s**a)

    def mean(self) -> float:
        return self.rate * self.shape * self.scale

    def exp_functional(self, theta):
        # (1 + s theta)^(-a) - 1, in full relative accuracy as theta -> 0
        return self.rate * np.expm1(-self.shape * _log1p(self.scale * theta))

    def exp_moment(self, theta):
        a, s = self.shape, self.scale
        return self.rate * a * s * (1.0 + s * theta) ** (-a - 1.0)

    def draw_jumps(self, scheme, rng):
        times = _poisson_times(self.rate * scheme.T, scheme.T, rng)
        return times, rng.gamma(self.shape, self.scale, size=len(times)), 0.0


@dataclass(frozen=True)
class GammaSubordinator(JumpMeasure):
    """Gamma subordinator: nu(dz) = shape * z^{-1} e^{-rate z} dz (infinite activity)."""

    kind: ClassVar[str] = "gamma-subordinator"
    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise DomainError("gamma-subordinator requires shape > 0 and rate > 0")

    def density(self, z):
        z = np.asarray(z, dtype=float)
        return self.shape * np.exp(-self.rate * z) / z

    def mean(self) -> float:
        return self.shape / self.rate

    def exp_functional(self, theta):
        return -self.shape * _log1p(theta / self.rate)

    def exp_moment(self, theta):
        return self.shape / (self.rate + theta)

    def draw_jumps(self, scheme, rng):
        """The jumps above the cutoff d = eps / 10 exactly; those below as
        their mean drift, int_0^d z nu(dz) = (shape/rate)(1 - e^{-rate d}).

        Above d, nu has mass shape E1(rate d).  Sizes come by rejection from
        a shifted exponential: propose z = d + Exp(rate), accept with
        probability d / z.  The shape only scales nu, so the size law does
        not depend on it.
        """
        from scipy import special  # E1 is the one special function a command needs

        cut = scheme.eps / 10.0
        e1 = special.exp1(self.rate * cut)
        times = _poisson_times(self.shape * e1 * scheme.T, scheme.T, rng)
        count = len(times)
        accept_rate = max(cut * self.rate * math.exp(self.rate * cut) * e1, 1e-3)
        sizes = np.empty(count)
        have = 0
        while have < count:
            batch = int((count - have) / accept_rate * 1.2) + 16
            z = cut + rng.exponential(1.0 / self.rate, size=batch)
            u = rng.uniform(size=batch)
            acc = z[u < cut / z]
            take = min(len(acc), count - have)
            sizes[have : have + take] = acc[:take]
            have += take
        return times, sizes, self.shape / self.rate * (-math.expm1(-self.rate * cut))


@dataclass(frozen=True)
class LevyModel:
    """Model triplet (c, D, nu) with initial value and scale-function discount q.

    D = sigma^2 / 2.  The premium rate c is treated as known throughout.
    """

    x0: float
    c: float
    D: float
    jumps: JumpMeasure
    q: float = 0.0

    def __post_init__(self):
        if self.D < 0:
            raise DomainError(f"D must be >= 0, got {self.D}")
        if self.q < 0:
            raise DomainError(f"q must be >= 0, got {self.q}")

    @property
    def sigma(self) -> float:
        return math.sqrt(2.0 * self.D)

    def require_npc(self) -> None:
        if check_npc(self) <= 0.0:
            raise DomainError(
                f"net profit condition violated: c = {self.c} <= nu(z) = {self.jumps.mean()}"
            )

    def theta0(self) -> "ThetaParams":
        """True (D, gamma) pair for this model's q."""
        return ThetaParams(D=self.D, gamma=lundberg_exponent(self, self.q))


@dataclass(frozen=True)
class ThetaParams:
    """The (D, gamma) parameter pair the coefficient functionals depend on.

    gamma is the Lundberg exponent Phi(q).
    """

    D: float
    gamma: float

    def __post_init__(self):
        if self.D < 0:
            raise DomainError(f"D must be >= 0, got {self.D}")
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")


def laplace_exponent(model: LevyModel, theta):
    """psi(theta) = c theta + D theta^2 + nu(e^{-theta z} - 1).

    Accepts scalar/array and complex theta (closed-form families only).
    """
    return model.c * theta + model.D * theta * theta + model.jumps.exp_functional(theta)


def laplace_exponent_deriv(model: LevyModel, theta):
    """psi'(theta) = c + 2 D theta - nu(z e^{-theta z}).

    At theta = 0 this is the net-profit margin c - nu(z).
    """
    return model.c + 2.0 * model.D * theta - model.jumps.exp_moment(theta)


def check_npc(model: LevyModel) -> float:
    """The net-profit margin c - nu(z) = psi'(0+); the condition holds when it is > 0."""
    return model.c - model.jumps.mean()


def lundberg_exponent(model: LevyModel, q: float) -> float:
    """Lundberg exponent Phi(q) = sup{theta >= 0 : psi(theta) = q}.

    psi'' = 2 D + nu(z^2 e^{-theta z}) >= 0, so psi is convex; under NPC
    psi(0) = 0 and psi'(0+) > 0, so for q > 0 the root is unique and
    positive.  psi(theta) - D theta^2 is convex with slope c - nu(z) at 0, so
    psi(theta) >= D theta^2 + (c - nu(z)) theta and ``quadratic_bracket``
    gives a closed-form end hi with psi(hi) > q.  Newton's method on the
    convex psi - q from hi (``convex_root``, with psi' from
    ``laplace_exponent_deriv``) falls monotonically onto the root, to full
    relative accuracy, small q included.  Residual check
    |psi(Phi) - q| <= 1e-12 * max(1, q).

    Raises DomainError if NPC fails, NumericalError if the residual check fails.
    """
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    model.require_npc()
    if q == 0.0:
        return 0.0

    hi = quadratic_bracket(model.D, check_npc(model), q)
    root = convex_root(
        lambda theta: laplace_exponent(model, theta) - q,
        lambda theta: laplace_exponent_deriv(model, theta),
        hi,
    )
    resid = abs(laplace_exponent(model, root) - q)
    tol = 1e-12 * max(1.0, q)
    if resid > tol:
        raise NumericalError(f"Lundberg root residual above {tol:.1e}", residual=resid)
    return root


def convex_root(f, df, hi: float) -> float:
    """The root of a convex f with f(0) < 0 < f(hi), by Newton's method from hi.

    A convex f lies above its tangents, so from any x with f(x) > 0 the
    Newton step x - f(x) / f'(x) lands in [root, x): the iterates fall
    monotonically onto the one root in (0, hi), at the quadratic rate near
    it.  The loop stops at the first x with f(x) <= 0, which only rounding
    reaches, or when a step no longer moves x down.  Raises DomainError
    unless f(hi) > 0, NumericalError on a NaN value of f or f' or when
    _ROOT_MAXITER steps do not converge.
    """

    def value(g, x: float) -> float:
        gx = float(g(x))
        if math.isnan(gx):
            raise NumericalError(f"root finder: NaN at {x!r}")
        return gx

    x = float(hi)
    fx = value(f, x)
    if not fx > 0.0:
        raise DomainError(f"root finder: f({hi!r}) = {fx!r} must be > 0")
    for _ in range(_ROOT_MAXITER):
        slope = value(df, x)
        nxt = x - fx / slope if slope > 0.0 else x
        if not nxt < x:
            return x
        x, fx = nxt, value(f, nxt)
        if fx <= 0.0:
            return x
    raise NumericalError(f"root finder: no convergence in {_ROOT_MAXITER} iterations")


def quadratic_bracket(D: float, b: float, a: float) -> float:
    """2 r*, where r* = 2a / (b + sqrt(b^2 + 4 D a)) is the positive root of
    D r^2 + b r = a (D >= 0, a > 0); inf when that denominator is <= 0,
    which is when D = 0 and b <= 0.

    A function f >= L = D r^2 + b r - a takes a value >= a at 2 r*, since L
    is convex with L(r*) = 0, so L(2 r*) = a + 2 D r*^2; so [0, 2 r*]
    brackets f = 0 when f(0) < 0, with room to spare (at r* itself L can be
    f exactly).  For b <= 0 the root is taken as (sqrt(.) - b) / (2D), which
    is the same r* without the cancellation in b + sqrt(.).
    """
    disc = math.sqrt(b * b + 4.0 * D * a)
    if b > 0.0:
        return 4.0 * a / (b + disc)
    return (disc - b) / D if D > 0.0 else math.inf
