"""q-scale functions of spectrally negative Levy processes.

Laguerre-type series computation of the scale functions W^(q) and Z^(q),
statistical estimation from discretely observed paths with recorded large
jumps, asymptotic confidence intervals, and independent numerical oracles.
"""

__version__ = "0.1.0"

from .exceptions import (
    ConfigError,
    DataError,
    DegenerateEstimateError,
    DomainError,
    GridTooCoarseError,
    IllConditionedError,
    NumericalError,
    QScaleError,
)
from .laguerre import LaguerreParams
from .levy import (
    CompoundPoissonExponential,
    CompoundPoissonGamma,
    GammaSubordinator,
    JumpMeasure,
    LevyModel,
    NoJumps,
    ThetaParams,
    check_npc,
    laplace_exponent,
    laplace_exponent_deriv,
    lundberg_exponent,
)
from .oracles import laplace_invert_scale
from .series import CoefficientSet, ScaleApprox, coeffs_true, scale_approx
from .simulate import ObservationSet, SamplingScheme, make_scheme
from .estimators import EstimationReport, build_report

__all__ = [
    "__version__",
    "QScaleError", "ConfigError", "DataError", "DomainError", "NumericalError",
    "IllConditionedError", "GridTooCoarseError", "DegenerateEstimateError",
    "LaguerreParams",
    "JumpMeasure", "NoJumps", "CompoundPoissonExponential", "CompoundPoissonGamma",
    "GammaSubordinator", "LevyModel", "ThetaParams",
    "laplace_exponent", "laplace_exponent_deriv", "lundberg_exponent", "check_npc",
    "laplace_invert_scale",
    "CoefficientSet", "ScaleApprox", "coeffs_true", "scale_approx",
    "SamplingScheme", "ObservationSet", "make_scheme",
    "EstimationReport", "build_report",
]
