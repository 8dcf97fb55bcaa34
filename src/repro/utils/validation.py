"""Light-weight argument validation helpers used at public API boundaries."""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np


def check_array(value, name: str, *, dtype=None, ndim: Optional[int] = None,
                allow_empty: bool = True) -> np.ndarray:
    """Coerce ``value`` to an ndarray and validate basic structural facts."""
    arr = np.asarray(value, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got {arr.ndim}")
    if not allow_empty and arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return arr


def check_int(name: str, value: object, minimum: int) -> None:
    """Refuse ``value`` unless it is an integer (not a bool) >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
            or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def is_finite_real(value: object) -> bool:
    """Whether ``value`` is a finite real number (a bool is not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and math.isfinite(value)


def check_shape(arr: np.ndarray, shape: Sequence[Optional[int]], name: str) -> None:
    """Validate an array shape against a template with ``None`` wildcards."""
    if len(arr.shape) != len(shape):
        raise ValueError(
            f"{name} must have {len(shape)} dimensions, got shape {arr.shape}")
    for axis, (got, want) in enumerate(zip(arr.shape, shape)):
        if want is not None and got != want:
            raise ValueError(
                f"{name} has size {got} along axis {axis}, expected {want}")


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate a (strictly) positive scalar."""
    value = float(value)
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate a scalar in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_in(value, options: Iterable, name: str):
    """Validate membership of ``value`` in ``options``."""
    options = tuple(options)
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value


def broadcast_shapes(*shapes: Tuple[int, ...]) -> Tuple[int, ...]:
    """Return the NumPy broadcast shape of the given shapes (raises if incompatible)."""
    return np.broadcast_shapes(*shapes)
