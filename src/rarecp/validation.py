"""Input validation helpers used at public API boundaries."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from rarecp.errors import DataError, NotFittedError


def float_array(x, name: str) -> np.ndarray:
    """``np.asarray(x, dtype=np.float64)``; ``DataError`` for non-numeric or complex input."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind == "c":  # a cast would keep only the real part
            raise DataError(f"{name} must be real, got complex values")
        return arr.astype(np.float64, copy=False)
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
    """Coerce to a finite float; a complex number is refused, not cast."""
    try:
        if not isinstance(value, (float, int)) and np.asarray(value).dtype.kind == "c":
            raise TypeError  # numpy's float() would keep only the real part
        value = float(value)
    except (TypeError, ValueError):
        raise DataError(f"{name} must be a real number, got {value!r}") from None
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


def check_count(value, name: str) -> int:
    """Require an integer (``check_int``) of at least 1."""
    value = check_int(value, name)
    if value < 1:
        raise DataError(f"{name} must be >= 1, got {value}")
    return value


def check_fields(config) -> None:
    """Check and keep each ``int`` (``check_int``) and ``float`` (``check_finite``) field
    of the dataclass instance ``config``, frozen or not."""
    for f in fields(config):
        check = {"int": check_int, "float": check_finite}.get(getattr(f.type, "__name__", f.type))
        if check is not None:
            object.__setattr__(config, f.name, check(getattr(config, f.name), f.name))


def check_weighting(mode, nexcp_lambda) -> float:
    """``nexcp_lambda`` as a number in (0, 1]; an unknown weighting ``mode``
    (``uniform`` or ``nexcp``) or any other ``nexcp_lambda`` raises ``DataError``."""
    if mode not in ("uniform", "nexcp"):
        raise DataError(f"unknown weighting {mode!r}; expected 'uniform' or 'nexcp'")
    if isinstance(nexcp_lambda, float) and 0.0 < nexcp_lambda <= 1.0:
        return nexcp_lambda
    nexcp_lambda = check_finite(nexcp_lambda, "nexcp_lambda")
    if not 0.0 < nexcp_lambda <= 1.0:
        raise DataError(f"nexcp_lambda must lie in (0, 1], got {nexcp_lambda}")
    return nexcp_lambda


def check_fitted(obj, attribute: str) -> None:
    if getattr(obj, attribute, None) is None:
        raise NotFittedError(
            f"{type(obj).__name__} is not fitted; call fit() or load a checkpoint"
        )
