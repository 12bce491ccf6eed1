"""Error hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, NumericalError and
subclasses -> 3, I/O problems (OSError, DataError) -> 4.  DomainError
signals inputs outside a formula's mathematical domain (e.g. net profit
condition violated) and is treated as a configuration problem at the CLI
boundary.
"""

from __future__ import annotations


class QScaleError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QScaleError, ValueError):
    """Input violates a mathematical precondition (NPC, p >= 1, ...)."""


class ConfigError(QScaleError, ValueError):
    """Invalid or inconsistent experiment configuration."""


class DataError(QScaleError, ValueError):
    """An input data file is malformed or disagrees with its sidecar."""


class NumericalError(QScaleError, RuntimeError):
    """A numerical routine failed to reach its tolerance.

    Carries the achieved residual/estimate so callers can decide whether
    the partial result is still usable.
    """

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (achieved residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class IllConditionedError(NumericalError):
    """Near-singular linear system (coefficient matrix diagonal ~ 0)."""


class GridTooCoarseError(NumericalError):
    """Grid discretization lost too much probability mass."""


class DegenerateEstimateError(QScaleError, RuntimeError):
    """An estimated quantity left its admissible range (e.g. p_hat >= 1).

    The raw estimate is preserved on the exception.
    """

    def __init__(self, message: str, raw_value: float):
        super().__init__(f"{message} (raw value {raw_value:.6g})")
        self.raw_value = raw_value
