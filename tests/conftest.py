"""Shared fixtures: reference models used throughout the suite, and the
coefficient transform of an empirical jump measure."""

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
