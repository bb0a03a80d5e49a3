"""Exception types shared across the package, and the argument checks
that raise them.

The CLI maps these onto its exit-code contract: configuration and input
problems exit 2, numerical failures exit 3.
"""

from numbers import Integral, Real


class KfwerError(Exception):
    """Base class for all package errors."""


class DomainError(KfwerError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(KfwerError):
    """Inconsistent or out-of-contract configuration (sizes, ranges, files)."""


class ScaleError(ConfigurationError):
    """A request exceeds the size cap an operation is designed for."""


class NumericalError(KfwerError):
    """Base class for numerical failures."""


class ConvergenceError(NumericalError):
    """An iterative scheme did not converge within its refinement budget."""


def as_int(name, value) -> int:
    """value as an int; bools, non-numbers and non-integral values raise."""
    if isinstance(value, Real) and not isinstance(value, bool):
        if isinstance(value, Integral) or float(value).is_integer():
            return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def as_float(name, value) -> float:
    """value as a float; bools and non-numbers raise."""
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigurationError(f"{name} must be a number, got {value!r}")


def as_floats(name, values) -> tuple:
    """A sequence of numbers as a tuple of floats."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise ConfigurationError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(as_float(name, v) for v in values)
