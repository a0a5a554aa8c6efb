"""Input validation helpers used at public API boundaries."""

from __future__ import annotations

import math

import numpy as np

from rarecp.errors import DataError, NotFittedError


def float_array(x, name: str) -> np.ndarray:
    """``np.asarray(x, dtype=np.float64)``, raising ``DataError`` for non-numeric input."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} must be numeric: {exc}") from None


def _finite_array(x, name: str, ndim: int) -> np.ndarray:
    arr = float_array(x, name)
    if arr.ndim != ndim:
        raise DataError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


def check_vector(x, name: str = "x", allow_empty: bool = False) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    arr = _finite_array(x, name, 1)
    if arr.size == 0 and not allow_empty:
        raise DataError(f"{name} must not be empty")
    return arr


def check_matrix(x, name: str = "X") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    return _finite_array(x, name, 2)


def check_finite(value, name: str) -> float:
    """Coerce to a finite float."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DataError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{name} must be finite, got {value}")
    return value


def check_unit_interval(value: float, name: str = "alpha") -> float:
    """Require a finite scalar strictly inside (0, 1)."""
    value = check_finite(value, name)
    if not 0.0 < value < 1.0:
        raise DataError(f"{name} must lie strictly in (0, 1), got {value}")
    return value


def check_int(value, name: str) -> int:
    """Require an integral number: an int, or a float with no fractional part."""
    try:
        ivalue = int(value)
    except (TypeError, ValueError, OverflowError):
        ivalue = None
    if ivalue is None or ivalue != value:
        raise DataError(f"{name} must be an integer, got {value!r}")
    return ivalue


def check_fitted(obj, attribute: str) -> None:
    if getattr(obj, attribute, None) is None:
        raise NotFittedError(
            f"{type(obj).__name__} is not fitted; call fit() or load a checkpoint"
        )
