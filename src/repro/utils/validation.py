"""Light-weight argument validation helpers used at public API boundaries."""

from __future__ import annotations

import math
import numbers
import numpy as np


def check_array(value, name: str, *, ndim: int) -> np.ndarray:
    """Coerce ``value`` to a float64 ndarray of ``ndim`` dimensions."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got {arr.ndim}")
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


def check_positive(value: float, name: str) -> float:
    """Validate a strictly positive scalar."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value
