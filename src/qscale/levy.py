"""Spectrally negative Levy model and its analytic primitives.

The process is ``X_t = x0 + c*t + sigma*W_t - L_t`` with ``L`` a subordinator
whose Levy measure ``nu`` lives on (0, inf).  Everything downstream reads the
model through its Laplace exponent

    psi(theta) = c*theta + D*theta^2 + nu(e^{-theta z} - 1),    D = sigma^2/2,

its derivative, and the Lundberg root ``Phi(q) = sup{theta >= 0: psi(theta) = q}``.

Jump measures are parametric families with closed-form functionals (density,
tail, moments, exponential functional).  The generic quadrature of nu(H),
``nu_functional_exact``, is a cross-check and lives in ``oracles``; the JSON
``model`` block is parsed in ``config``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize, special

from .exceptions import DomainError, NumericalError

__all__ = [
    "JumpMeasure",
    "NoJumps",
    "CompoundPoissonExponential",
    "CompoundPoissonGamma",
    "GammaSubordinator",
    "LevyModel",
    "ThetaParams",
    "NpcResult",
    "laplace_exponent",
    "laplace_exponent_deriv",
    "lundberg_exponent",
    "check_npc",
]

# Bracketing defaults and Brent tolerances for the Lundberg root (see lundberg_exponent).
_THETA_MAX_DEFAULT = 50.0
_THETA_MAX_CAP = 1.0e9
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_XTOL = 1e-300


class JumpMeasure:
    """Base class for the jump measure ``nu`` of the subordinator ``L``.

    Subclasses provide the density per unit time, the tail
    ``nubar(x) = nu((x, inf))``, the first two moments ``nu(z)``, ``nu(z^2)``,
    and the exponential functional ``nu(e^{-theta z} - 1)`` in closed form.
    The closed forms accept complex ``theta`` (needed by the Talbot oracle).
    """

    kind: str = "abstract"

    @property
    def is_zero(self) -> bool:
        return False

    def density(self, z):
        """Levy density rho(z), z > 0."""
        raise NotImplementedError

    def tail(self, x):
        """nubar(x) = integral of nu over (x, inf)."""
        raise NotImplementedError

    def mean(self) -> float:
        """nu(z), finite for every supported family."""
        raise NotImplementedError

    def second_moment(self) -> float:
        """nu(z^2)."""
        raise NotImplementedError

    def exp_functional(self, theta):
        """nu(e^{-theta z} - 1); analytic in theta, complex-capable."""
        raise NotImplementedError

    def exp_moment(self, theta):
        """nu(z e^{-theta z}), so that psi'(theta) = c + 2 D theta - exp_moment."""
        raise NotImplementedError

    def truncated_moments(self, eps: float) -> tuple[float, float]:
        """(integral of z nu(dz), integral of z^2 nu(dz)) over (0, eps]."""
        raise NotImplementedError

    def total_rate(self) -> float:
        """nu((0, inf)); may be inf (infinite activity)."""
        raise NotImplementedError


@dataclass(frozen=True)
class NoJumps(JumpMeasure):
    """The zero measure: purely Gaussian model."""

    kind: str = "none"

    @property
    def is_zero(self) -> bool:
        return True

    def density(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def tail(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def mean(self) -> float:
        return 0.0

    def second_moment(self) -> float:
        return 0.0

    def exp_functional(self, theta):
        return np.zeros_like(np.asarray(theta)) if np.ndim(theta) else 0.0 * theta

    def exp_moment(self, theta):
        return np.zeros_like(np.asarray(theta)) if np.ndim(theta) else 0.0 * theta

    def truncated_moments(self, eps: float) -> tuple[float, float]:
        return (0.0, 0.0)

    def total_rate(self) -> float:
        return 0.0


@dataclass(frozen=True)
class CompoundPoissonExponential(JumpMeasure):
    """Compound Poisson jumps, Exp(mu)-distributed sizes with mean 1/mu.

    nu(dz) = rate * mu * e^{-mu z} dz.
    """

    rate: float
    jump_mean: float
    kind: str = "compound-poisson-exponential"

    def __post_init__(self):
        if self.rate <= 0 or self.jump_mean <= 0:
            raise DomainError("compound-poisson-exponential requires rate > 0 and jump_mean > 0")

    @property
    def mu(self) -> float:
        return 1.0 / self.jump_mean

    def density(self, z):
        z = np.asarray(z, dtype=float)
        return self.rate * self.mu * np.exp(-self.mu * z)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return self.rate * np.exp(-self.mu * x)

    def mean(self) -> float:
        return self.rate * self.jump_mean

    def second_moment(self) -> float:
        return 2.0 * self.rate / self.mu**2

    def exp_functional(self, theta):
        return -self.rate * theta / (self.mu + theta)

    def exp_moment(self, theta):
        return self.rate * self.mu / (self.mu + theta) ** 2

    def truncated_moments(self, eps: float) -> tuple[float, float]:
        mu = self.mu
        m1 = self.rate / mu * special.gammainc(2.0, mu * eps)
        m2 = 2.0 * self.rate / mu**2 * special.gammainc(3.0, mu * eps)
        return (m1, m2)

    def total_rate(self) -> float:
        return self.rate


@dataclass(frozen=True)
class CompoundPoissonGamma(JumpMeasure):
    """Compound Poisson jumps with Gamma(shape, scale) sizes.

    nu(dz) = rate * z^{shape-1} e^{-z/scale} / (Gamma(shape) scale^shape) dz.
    """

    rate: float
    shape: float
    scale: float
    kind: str = "compound-poisson-gamma"

    def __post_init__(self):
        if self.rate <= 0 or self.shape <= 0 or self.scale <= 0:
            raise DomainError("compound-poisson-gamma requires rate, shape, scale > 0")

    def density(self, z):
        z = np.asarray(z, dtype=float)
        a, s = self.shape, self.scale
        return self.rate * z ** (a - 1.0) * np.exp(-z / s) / (special.gamma(a) * s**a)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return self.rate * special.gammaincc(self.shape, x / self.scale)

    def mean(self) -> float:
        return self.rate * self.shape * self.scale

    def second_moment(self) -> float:
        return self.rate * self.shape * (self.shape + 1.0) * self.scale**2

    def exp_functional(self, theta):
        return self.rate * ((1.0 + self.scale * theta) ** (-self.shape) - 1.0)

    def exp_moment(self, theta):
        a, s = self.shape, self.scale
        return self.rate * a * s * (1.0 + s * theta) ** (-a - 1.0)

    def truncated_moments(self, eps: float) -> tuple[float, float]:
        a, s = self.shape, self.scale
        m1 = self.rate * a * s * special.gammainc(a + 1.0, eps / s)
        m2 = self.rate * a * (a + 1.0) * s**2 * special.gammainc(a + 2.0, eps / s)
        return (m1, m2)

    def total_rate(self) -> float:
        return self.rate


@dataclass(frozen=True)
class GammaSubordinator(JumpMeasure):
    """Gamma subordinator: nu(dz) = shape * z^{-1} e^{-rate z} dz (infinite activity)."""

    shape: float
    rate: float
    kind: str = "gamma-subordinator"

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise DomainError("gamma-subordinator requires shape > 0 and rate > 0")

    def density(self, z):
        z = np.asarray(z, dtype=float)
        return self.shape * np.exp(-self.rate * z) / z

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return self.shape * special.exp1(self.rate * x)

    def mean(self) -> float:
        return self.shape / self.rate

    def second_moment(self) -> float:
        return self.shape / self.rate**2

    def exp_functional(self, theta):
        return -self.shape * np.log(1.0 + theta / self.rate)

    def exp_moment(self, theta):
        return self.shape / (self.rate + theta)

    def truncated_moments(self, eps: float) -> tuple[float, float]:
        a, b = self.shape, self.rate
        m1 = a / b * (-math.expm1(-b * eps))
        m2 = a / b**2 * special.gammainc(2.0, b * eps)
        return (m1, m2)

    def total_rate(self) -> float:
        return math.inf


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
        res = check_npc(self)
        if not res.holds:
            raise DomainError(
                f"net profit condition violated: c = {self.c} <= nu(z) = {self.jumps.mean()}"
            )

    def theta0(self) -> "ThetaParams":
        """True (D, gamma) pair for this model's q."""
        return ThetaParams(D=self.D, gamma=lundberg_exponent(self, self.q))


@dataclass(frozen=True)
class ThetaParams:
    """The (D, gamma) parameter pair the coefficient functionals depend on.

    gamma is the Lundberg exponent Phi(q).  beta = c/D + gamma when D > 0 and
    beta = gamma when D = 0; it needs the premium rate, hence the method.
    """

    D: float
    gamma: float

    def __post_init__(self):
        if self.D < 0:
            raise DomainError(f"D must be >= 0, got {self.D}")
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")

    def beta(self, c: float) -> float:
        if self.D > 0:
            return c / self.D + self.gamma
        return self.gamma


class NpcResult(NamedTuple):
    holds: bool
    margin: float


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


def check_npc(model: LevyModel) -> NpcResult:
    """Net profit condition c > nu(z); margin is psi'(0+)."""
    margin = model.c - model.jumps.mean()
    return NpcResult(holds=margin > 0.0, margin=margin)


def lundberg_exponent(model: LevyModel, q: float | None = None) -> float:
    """Lundberg exponent Phi(q) = sup{theta >= 0 : psi(theta) = q}.

    Under NPC, psi is strictly convex with psi(0) = 0 and psi'(0+) > 0, so for
    q > 0 the root is unique and positive.  Bracket [0, theta_max] (doubling
    theta_max until psi exceeds q), then Brent's method to the relative
    tolerance 4 eps, the tightest scipy allows, with an absolute tolerance
    far below any root, so small q keeps full relative accuracy.  Residual
    check |psi(Phi) - q| <= 1e-12 * max(1, q).

    Raises DomainError if NPC fails, NumericalError if no bracket is found.
    """
    if q is None:
        q = model.q
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    model.require_npc()
    if q == 0.0:
        return 0.0

    hi = _THETA_MAX_DEFAULT
    while laplace_exponent(model, hi) <= q:
        hi *= 2.0
        if hi > _THETA_MAX_CAP:
            raise NumericalError(
                f"no bracket for Phi({q}) below theta_max = {_THETA_MAX_CAP:.1e}",
                residual=float(laplace_exponent(model, _THETA_MAX_CAP) - q),
            )
    root = optimize.brentq(
        _lundberg_gap, 0.0, hi, args=(model, q), xtol=_ROOT_XTOL, rtol=_ROOT_RTOL
    )
    resid = abs(laplace_exponent(model, root) - q)
    tol = 1e-12 * max(1.0, q)
    if resid > tol:
        raise NumericalError(f"Lundberg root residual above {tol:.1e}", residual=resid)
    return float(root)


def _lundberg_gap(theta, model: LevyModel, q: float):
    return laplace_exponent(model, theta) - q
