"""Shared fixtures: reference models used throughout the suite, their images
under a rescaling of space and time, and the coefficient transform of an
empirical jump measure."""

from __future__ import annotations

import numpy as np
import pytest

from qscale.laguerre import LaguerreParams
from qscale.levy import (
    CompoundPoissonExponential,
    CompoundPoissonGamma,
    GammaSubordinator,
    JumpMeasure,
    LevyModel,
    NoJumps,
    ThetaParams,
)
from qscale.series import _transform_coeffs, p_value


@pytest.fixture
def exp_jump_model() -> LevyModel:
    """The workhorse: c = 1.5, D = 0.5, Exp(1) jumps at rate 1, q = 0.1."""
    return LevyModel(x0=0.0, c=1.5, D=0.5, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.1)


@pytest.fixture
def cramer_lundberg_model() -> LevyModel:
    """D = 0 exponential-jump model (classical risk process), q = 0.1."""
    return LevyModel(x0=0.0, c=1.5, D=0.0, jumps=CompoundPoissonExponential(1.0, 1.0), q=0.1)


@pytest.fixture
def brownian_model() -> LevyModel:
    return LevyModel(x0=0.0, c=1.5, D=0.5, jumps=NoJumps(), q=0.1)


@pytest.fixture
def gamma_sub_model() -> LevyModel:
    return LevyModel(x0=0.0, c=1.5, D=0.3, jumps=GammaSubordinator(shape=0.5, rate=1.0), q=0.2)


@pytest.fixture
def cp_gamma_model() -> LevyModel:
    return LevyModel(
        x0=0.0, c=2.0, D=0.0, jumps=CompoundPoissonGamma(rate=1.0, shape=2.0, scale=0.4), q=0.05
    )


@pytest.fixture
def params20() -> LaguerreParams:
    return LaguerreParams(alpha=1.0, K=20)


@pytest.fixture
def params40() -> LaguerreParams:
    return LaguerreParams(alpha=1.0, K=40)


def _rescaled(model: LevyModel, lam: float = 1.0, kappa: float = 1.0) -> LevyModel:
    """The model of lam X_{kappa t}, whose Laplace exponent is kappa psi(lam theta).

    c scales by lam kappa, D by lam^2 kappa, q by kappa, and each family maps
    into itself: jump sizes scale by lam and jump rates by kappa.  Its W^(kappa q)
    is W^(q)(x / lam) / (lam kappa), and its Z^(kappa q) is Z^(q)(x / lam).
    """
    j = model.jumps
    if isinstance(j, CompoundPoissonExponential):
        jumps = CompoundPoissonExponential(j.rate * kappa, j.jump_mean * lam)
    elif isinstance(j, CompoundPoissonGamma):
        jumps = CompoundPoissonGamma(j.rate * kappa, j.shape, j.scale * lam)
    elif isinstance(j, GammaSubordinator):
        jumps = GammaSubordinator(j.shape * kappa, j.rate / lam)
    else:
        assert isinstance(j, NoJumps)
        jumps = j
    return LevyModel(
        model.x0 * lam, model.c * lam * kappa, model.D * lam * lam * kappa, jumps, model.q * kappa
    )


@pytest.fixture(scope="session")
def rescaled():
    return _rescaled


class _EmpiricalMeasure(JumpMeasure):
    """nu_hat = sum_j delta_{z_j} / T, with the two functionals that ``p_value``
    and the coefficient transform read."""

    def __init__(self, z, T: float):
        self.z, self.T = np.asarray(z, dtype=float), T

    def mean(self) -> float:
        return float(np.sum(self.z)) / self.T

    def exp_functional(self, theta):
        return np.expm1(-np.multiply.outer(theta, self.z)).sum(axis=-1) / self.T


def _empirical_coeffs(c: float, theta: ThetaParams, params: LaguerreParams, z, T: float):
    """(p, a^f, a^F) of nu_hat = sum_j delta_{z_j} / T at theta, by the population
    transform: the sample means (1/T) sum_j (H_p, H^f, H^F)(z_j), with no
    kernel ladder.  ``p_value`` requires sum(z) / T < c."""
    model = LevyModel(x0=0.0, c=c, D=theta.D, jumps=_EmpiricalMeasure(z, T))
    p = p_value(model, theta)
    return (p, *_transform_coeffs(model, theta, params, p))


@pytest.fixture(scope="session")
def empirical_coeffs():
    return _empirical_coeffs
