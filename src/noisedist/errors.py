"""Exception types shared across the package, and the one numeric-argument converter."""

import numpy as np


class NoiseDistError(Exception):
    """Base class for all package errors."""


class ValidationError(NoiseDistError, ValueError):
    """An input violates a structural invariant (non-unit axis, bad table, ...)."""


class DomainError(NoiseDistError, ValueError):
    """A numerical argument is outside the mathematical domain of a function."""


class EstimationError(NoiseDistError, RuntimeError):
    """A probability estimate is undefined for the given count data."""


def _floats(*values):
    """The arguments as float64 arrays (one array for one argument): a float64
    ndarray passes through, anything else goes through np.asarray once. Text,
    None, complex, object and ragged input raise ValidationError, as do shapes
    that do not broadcast together; booleans and integers are numbers."""
    arrays = []
    try:
        for value in values:
            if type(value) is not np.ndarray or value.dtype.type is not np.float64:
                # a same-kind cast to float64 takes the kinds b, i, u and f only
                value = np.asarray(value).astype(np.float64, copy=False, casting="same_kind")
            arrays.append(value)
        if len(arrays) > 1:
            np.broadcast(*arrays)
    except (TypeError, ValueError) as exc:  # also a ragged sequence
        raise ValidationError(f"arguments must hold numbers that broadcast: {exc}") from None
    return arrays if len(arrays) > 1 else arrays[0]


def _float(value) -> float:
    """A scalar argument as a Python float, through _floats; other shapes raise ValidationError."""
    if type(value) is float:  # the common case, without the numpy calls
        return value
    arr = _floats(value)
    if arr.shape != ():
        raise ValidationError(f"a scalar argument's shape must be (), got {arr.shape}")
    return float(arr)


def _count(name: str, value, low: int, high: int = None) -> int:
    """A size or seed as an int: an integer (not a bool) in [low, high], else ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be at most {high}, got {value!r}")
    return int(value)
