"""Weighted-quantile conformal core.

Everything here operates on a :class:`WeightedSupport`: a discrete signed
residual distribution given by residual values and nonnegative weights
summing to one. Intervals are built from the weighted quantiles

    F(rho)  = sum_i w_i * 1{r_i <= rho}
    Q(tau)  = inf{rho : F(rho) >= tau}
    C_alpha = [forecast + Q(alpha/2), forecast + Q(1 - alpha/2)]

Signed residuals let the lower and upper tails calibrate independently,
so the intervals are asymmetric whenever the residual distribution is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from rarecp.errors import DataError, NumericError
from rarecp.validation import check_unit_interval

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class WeightedSupport:
    """Discrete residual distribution: values with weights summing to 1."""

    residuals: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        residuals = np.asarray(self.residuals, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "weights", weights)
        if residuals.ndim != 1 or weights.ndim != 1:
            raise DataError("support residuals and weights must be 1-D")
        if residuals.size == 0:
            raise DataError("empty support is forbidden")
        if residuals.shape != weights.shape:
            raise DataError("support residuals and weights must align")
        if not (np.all(np.isfinite(residuals)) and np.all(np.isfinite(weights))):
            raise DataError("support contains non-finite values")
        if np.any(weights < 0.0):
            raise DataError("support weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise DataError(
                f"support weights must sum to 1 within {WEIGHT_SUM_TOL}, "
                f"got {float(weights.sum())!r}"
            )

    def __len__(self) -> int:
        return int(self.residuals.size)


@dataclass(frozen=True)
class PredictionInterval:
    lower: float
    upper: float
    alpha_used: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise DataError(
                f"interval bounds out of order: [{self.lower}, {self.upper}]"
            )
        check_unit_interval(self.alpha_used, "alpha_used")

    def covers(self, y: float) -> bool:
        """Closed-interval convention: endpoints count as covered."""
        return self.lower <= y <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower


def weighted_cdf(support: WeightedSupport, rho: float) -> float:
    """Right-continuous step CDF value at ``rho``."""
    return float(support.weights[support.residuals <= rho].sum())


def _sorted_cumulative(support: WeightedSupport) -> tuple[np.ndarray, np.ndarray]:
    """Support residuals in ascending (stable) order with their cumulative weights."""
    order = np.argsort(support.residuals, kind="stable")
    return support.residuals[order], np.cumsum(support.weights[order])


def _quantile(values: np.ndarray, cum: np.ndarray, tau: float) -> float:
    """Smallest sorted value whose cumulative weight reaches ``tau``.

    The infimum over the discrete support is taken literally: an exact hit
    on a cumulative-weight boundary includes that item. If rounding leaves
    the total marginally below a level the largest residual is returned.
    """
    return values.item(min(cum.searchsorted(tau), cum.size - 1))


def _interval(
    forecast: float, values: np.ndarray, cum: np.ndarray, alpha: float
) -> PredictionInterval:
    """Interval from sorted residuals and their cumulative weights."""
    alpha = check_unit_interval(alpha, "alpha")
    tau_lo = check_unit_interval(alpha / 2.0, "tau")
    tau_hi = check_unit_interval(1.0 - alpha / 2.0, "tau")
    if not math.isfinite(forecast):
        raise DataError(f"forecast must be finite, got {forecast}")
    lower = forecast + _quantile(values, cum, tau_lo)
    upper = forecast + _quantile(values, cum, tau_hi)
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise NumericError(f"interval bounds overflow: [{lower}, {upper}]")
    return PredictionInterval(lower=lower, upper=upper, alpha_used=alpha)


def weighted_quantile(support: WeightedSupport, tau: float) -> float:
    """Smallest support residual whose cumulative weight reaches ``tau``."""
    tau = check_unit_interval(tau, "tau")
    return _quantile(*_sorted_cumulative(support), tau)


def build_interval(
    forecast: float, support: WeightedSupport, alpha: float
) -> PredictionInterval:
    """Two-sided interval from the weighted residual quantiles."""
    return _interval(forecast, *_sorted_cumulative(support), alpha)


def winkler_score(lower: float, upper: float, y: float, alpha: float) -> float:
    """Interval width plus (2/alpha)-scaled penalties for misses.

    Values exactly on an endpoint count as covered and incur no penalty.
    A non-finite bound or target raises ``DataError``.
    """
    alpha = check_unit_interval(alpha, "alpha")
    if not (math.isfinite(lower) and math.isfinite(upper) and math.isfinite(y)):
        raise DataError(f"winkler_score needs finite bounds and target: [{lower}, {upper}], {y}")
    if lower > upper:
        raise DataError(f"interval bounds out of order: [{lower}, {upper}]")
    score = upper - lower
    if y < lower:
        score += (2.0 / alpha) * (lower - y)
    elif y > upper:
        score += (2.0 / alpha) * (y - upper)
    return score


@dataclass(frozen=True)
class AciState:
    """Online miscoverage level with its target, step size and clip bounds."""

    alpha_t: float
    alpha_target: float
    gamma: float
    alpha_min: float = 0.01
    alpha_max: float = 0.99

    def __post_init__(self):
        if not 0.0 < self.alpha_min < self.alpha_max < 1.0:
            raise DataError("require 0 < alpha_min < alpha_max < 1")
        check_unit_interval(self.alpha_target, "alpha_target")
        if not 0.0 <= self.gamma < math.inf:  # NaN fails too
            raise DataError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not self.alpha_min <= self.alpha_t <= self.alpha_max:
            raise DataError("alpha_t must start inside the clip bounds")

    @classmethod
    def initial(
        cls,
        alpha_target: float,
        gamma: float,
        alpha_min: float = 0.01,
        alpha_max: float = 0.99,
    ) -> "AciState":
        return cls(
            alpha_t=alpha_target,
            alpha_target=alpha_target,
            gamma=gamma,
            alpha_min=alpha_min,
            alpha_max=alpha_max,
        )


def aci_update(state: AciState, covered: bool) -> AciState:
    """One online correction step: alpha += gamma * (target - err), clipped.

    ``err`` is 1 on a miss and 0 on a cover, so misses widen the next
    interval and covers tighten it. The interval at time t is built from
    the pre-update level; the update is applied after observing coverage.
    """
    err = 0.0 if covered else 1.0
    alpha_next = state.alpha_t + state.gamma * (state.alpha_target - err)
    alpha_next = min(max(alpha_next, state.alpha_min), state.alpha_max)
    return AciState(alpha_next, state.alpha_target, state.gamma, state.alpha_min, state.alpha_max)


def baseline_weights(
    residuals, mode: str = "uniform", nexcp_lambda: float = 0.99
) -> WeightedSupport:
    """Classical weighting schemes over a calibration window.

    ``uniform`` assigns 1/n everywhere. ``nexcp`` decays geometrically with
    age (the last residual is the most recent, age 0), normalized to sum
    to one; ``nexcp_lambda = 1`` recovers uniform.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.ndim != 1 or residuals.size == 0:
        raise DataError("baseline_weights needs a non-empty 1-D residual array")
    n = residuals.size
    if mode == "uniform":
        weights = np.full(n, 1.0 / n)
    elif mode == "nexcp":
        if not 0.0 < nexcp_lambda <= 1.0:
            raise DataError("nexcp_lambda must lie in (0, 1]")
        ages = np.arange(n - 1, -1, -1, dtype=np.float64)
        raw = nexcp_lambda**ages
        weights = raw / raw.sum()
    else:
        raise DataError(f"unknown weighting mode {mode!r}")
    return WeightedSupport(residuals, weights)


@lru_cache(maxsize=8)
def _uniform_cumulative(n: int) -> np.ndarray:
    cum = np.cumsum(np.full(n, 1.0 / n))
    cum.flags.writeable = False
    return cum


@lru_cache(maxsize=8)
def _nexcp_weights(n: int, nexcp_lambda: float) -> np.ndarray:
    """Normalized lambda**age weights indexed by chronological position."""
    raw = nexcp_lambda ** np.arange(n - 1, -1, -1, dtype=np.float64)
    weights = raw / raw.sum()
    weights.flags.writeable = False
    return weights


def baseline_interval(
    forecast: float,
    store,
    alpha: float,
    mode: str = "uniform",
    nexcp_lambda: float = 0.99,
) -> PredictionInterval:
    """Uniform or NexCP interval over a calibration store's window, without a sort or a copy.

    Equal, bit for bit, to ``build_interval(forecast, baseline_weights(
    store.residuals(), mode, nexcp_lambda), alpha)``. It reads the store's
    sorted window in place: uniform searches cumulative weights cached by
    window length and reads two residuals; NexCP gathers its weights by
    chronological position (arrival minus oldest) before its cumulative sum.
    """
    values, arrivals, oldest = store.sorted_window()
    n = values.size
    if n == 0:
        raise DataError("cannot build an interval from an empty store")
    if mode == "uniform":
        cum = _uniform_cumulative(n)
    elif mode == "nexcp":
        if not 0.0 < nexcp_lambda <= 1.0:
            raise DataError("nexcp_lambda must lie in (0, 1]")
        cum = np.cumsum(_nexcp_weights(n, float(nexcp_lambda)).take(arrivals - oldest))
    else:
        raise DataError(f"unknown weighting mode {mode!r}")
    return _interval(forecast, values, cum, alpha)
