"""Error hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, NumericalError and
subclasses -> 3, I/O problems (OSError, DataError) -> 4.  DomainError
signals inputs outside a formula's mathematical domain (e.g. net profit
condition violated) and is treated as a configuration problem at the CLI
boundary.

The two field checks ``_check_number`` and ``_check_int`` validate a number
read from JSON (a config block or an observation sidecar); they raise
ConfigError, which a reader of data files turns into DataError.
"""

from __future__ import annotations

import sys


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


def _check_number(block: dict, key: str, blockname: str, default=None):
    """block[key] as given: a finite real number (bools and strings are rejected)."""
    if key not in block:
        if default is not None:
            return default
        raise ConfigError(f"{blockname} block missing field {key!r}")
    v = block[key]
    # the magnitude test also rejects nan, +-inf and ints too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{blockname}.{key} must be a finite number, got {v!r}")
    return v


def _check_int(block: dict, key: str, blockname: str, minimum: int, default=None) -> int:
    """block[key] as an int: a finite number with an integer value >= minimum."""
    v = _check_number(block, key, blockname, default)
    if int(v) != v or v < minimum:
        raise ConfigError(f"{blockname}.{key} must be an integer >= {minimum}, got {v}")
    return int(v)
