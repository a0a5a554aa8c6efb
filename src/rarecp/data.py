"""Series ingestion, chronological splitting, contexts, and calibration storage."""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rarecp.errors import (
    ColumnMissingError,
    DataError,
    EmptySeriesError,
    FileMissingError,
    ForecastMissingError,
    NonNumericCellError,
)
from rarecp.validation import check_count, check_finite, check_int, float_array

FRACTION_SUM_TOL = 1e-9
DEFAULT_SIGMA_FLOOR = 1e-6
DEFAULT_WINDOW = 64


@dataclass(frozen=True)
class TimeSeries:
    """Univariate target series in file/row order."""

    values: np.ndarray
    name: str = "series"
    frequency_tag: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise DataError("a series needs at least one value")
        if not np.all(np.isfinite(values)):
            raise DataError(f"series {self.name!r} contains non-finite values")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.60
    cal_frac: float = 0.15
    test_frac: float = 0.25

    def __post_init__(self):
        fracs = (self.train_frac, self.cal_frac, self.test_frac)
        if any(f <= 0.0 for f in fracs):
            raise DataError("split fractions must all be positive")
        if abs(sum(fracs) - 1.0) > FRACTION_SUM_TOL:
            raise DataError(f"split fractions must sum to 1, got {sum(fracs)!r}")


@dataclass(frozen=True)
class SplitIndices:
    """Contiguous, disjoint index ranges ordered train < cal < test."""

    train: range
    cal: range
    test: range


def chronological_split(n: int, spec: SplitSpec) -> SplitIndices:
    """Split [0, n) chronologically.

    Train and calibration get floor(frac * n) rows; the remainder goes to
    the test segment so earlier segments never exceed their fractions.
    """
    if n < 1:
        raise DataError("cannot split an empty series")
    n_train = int(np.floor(spec.train_frac * n))
    n_cal = int(np.floor(spec.cal_frac * n))
    n_test = n - n_train - n_cal
    if n_train < 1 or n_cal < 1 or n_test < 1:
        raise DataError(
            f"split of n={n} leaves an empty segment "
            f"(train={n_train}, cal={n_cal}, test={n_test})"
        )
    return SplitIndices(
        train=range(0, n_train),
        cal=range(n_train, n_train + n_cal),
        test=range(n_train + n_cal, n),
    )


def build_context(
    history: np.ndarray,
    forecast: float | None,
    window: int,
    include_forecast: bool = True,
) -> np.ndarray:
    """Flattened window of the last ``window`` values, optionally with the forecast.

    Shorter histories are left-padded with their earliest value ("edge"
    padding) so the feature dimension stays fixed for early time steps.
    """
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 1:
        raise DataError("history must be 1-D")
    if history.size == 0:
        raise DataError("cannot build a context from an empty history")
    if window < 1:
        raise DataError("window must be >= 1")
    if history.size >= window:
        feats = history[-window:]
    else:
        pad = np.full(window - history.size, history[0])
        feats = np.concatenate([pad, history])
    if include_forecast:
        if forecast is None:
            raise DataError("include_forecast=True requires a forecast value")
        feats = np.concatenate([feats, [float(forecast)]])
    feats = np.array(feats, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(feats)):
        raise DataError("context contains non-finite values")
    return feats


@dataclass(frozen=True)
class CalibrationEntry:
    context: np.ndarray
    residual: float
    time_index: int


class CalibrationStore:
    """FIFO window of (context, signed residual) pairs.

    Entries arrive in time order, only after their target is observed;
    once full, the oldest entry is evicted first. Backed by ring buffers so
    eviction is O(1). Each array has its own chronological view, built on
    request and cached until the next mutation, so asking for residuals
    never copies the contexts.

    ``sorted_residuals`` keeps the window in ascending order as well. It is
    built by one stable argsort on first request and from then on updated
    by every ``append`` (two ``searchsorted`` calls and one shift of the
    span between the evicted and the new value's slots), so a store that
    never asks for it never pays for it.

    ``condition`` fixes the dataset descriptor that training and retrieval
    read every context and query through, and whether contexts are z-scored
    with it. ``key_inputs`` then holds the contexts as the encoders see them,
    laid out as (p + 1, capacity) columns in ring order, the last row a
    constant 1 that folds a key map's bias into its GEMM. It follows the same
    pattern: built on first request after ``condition``, then kept by every
    ``append`` with the column's p key entries. ``query`` reads a query the
    same way and attaches the descriptor's ``features``.
    """

    def __init__(self, capacity: int, context_dim: int):
        self.capacity = check_count(capacity, "store capacity")
        self._dim = check_count(context_dim, "store context dimension")
        self._contexts = np.zeros((self.capacity, self._dim))
        self._residuals = np.zeros(self.capacity)
        self._times = np.zeros(self.capacity, dtype=np.int64)
        self._start = 0
        self._size = 0
        self._views: dict[str, object] = {}
        # ascending residuals and the arrival number of each (the count of
        # entries appended before it); None until first requested
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None
        self._arrivals = 0
        # set by ``condition``; the (p + 1, capacity) key inputs in ring order
        # are None until first requested after it
        self._descriptor: DatasetDescriptor | None = None
        self._features: np.ndarray | None = None
        self._normalize = True
        self._keys: np.ndarray | None = None

    def __len__(self) -> int:
        return self._size

    @property
    def context_dim(self) -> int:
        return self._dim

    def append(self, entry: CalibrationEntry) -> None:
        context = float_array(entry.context, "entry context")
        if context.shape != (self._dim,):
            raise DataError(
                f"entry context has shape {context.shape}, expected ({self._dim},)"
            )
        residual = check_finite(entry.residual, "entry residual")
        time_index = check_int(entry.time_index, "time_index")
        if self._size > 0:
            last = self._times[(self._start + self._size - 1) % self.capacity]
            if time_index <= last:
                raise DataError(f"time_index {time_index} does not increase past {last}")
        pos = (self._start + self._size) % self.capacity
        if self._keys is not None:
            column = self._key_rows(context)
        if self._sorted is not None:
            self._update_sorted(residual)
        if self._size == self.capacity:
            self._start = (self._start + 1) % self.capacity
        else:
            self._size += 1
        self._contexts[pos] = context
        self._residuals[pos] = residual
        self._times[pos] = time_index
        if self._keys is not None:
            self._keys[:-1, pos] = column
        self._arrivals += 1
        self._views.clear()

    def _update_sorted(self, residual: float) -> None:
        """Evict the oldest value from the sorted window and insert ``residual``.

        Equal values sit in arrival order, so the evicted (oldest) value is
        the leftmost of its equals and the new one goes right of all of them.
        """
        values, arrivals = self._sorted
        n = self._size
        j = int(np.searchsorted(values[:n], residual, side="right"))
        i = n  # while the window fills, the free slot past the end
        if n == self.capacity:
            i = int(np.searchsorted(values[:n], self._residuals[self._start], side="left"))
            j -= i < j  # the evicted value was one of the j values <= residual
        dst, src = slice(i, j), slice(i + 1, j + 1)  # what lies between the slots moves
        if j <= i:
            dst, src = slice(j + 1, i + 1), slice(j, i)
        for arr in (values, arrivals):
            arr[dst] = arr[src]
        values[j] = residual
        arrivals[j] = self._arrivals

    def _chronological(self, key: str, buffer: np.ndarray) -> np.ndarray:
        view = self._views.get(key)
        if view is None:
            if self._start == 0:
                view = buffer[: self._size].copy()
            else:
                view = np.concatenate((buffer[self._start :], buffer[: self._start]))
            view.flags.writeable = False
            self._views[key] = view
        return view

    def contexts(self) -> np.ndarray:
        return self._chronological("contexts", self._contexts)

    def residuals(self) -> np.ndarray:
        return self._chronological("residuals", self._residuals)

    def time_indices(self) -> np.ndarray:
        return self._chronological("times", self._times)

    def sorted_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """Residuals in ascending order and each one's chronological position.

        Position 0 is the oldest entry. Ties keep arrival order, so this is
        exactly ``residuals()[order], order`` for a stable argsort ``order``.
        """
        view = self._views.get("sorted")
        if view is None:
            n = self._size
            if self._sorted is None:
                order = np.argsort(self.residuals(), kind="stable")
                values = np.zeros(self.capacity)
                arrivals = np.zeros(self.capacity, dtype=np.int64)
                values[:n] = self.residuals()[order]
                arrivals[:n] = order + (self._arrivals - n)
                self._sorted = (values, arrivals)
            values, arrivals = self._sorted
            view = (values[:n].copy(), arrivals[:n] - (self._arrivals - n))
            for arr in view:
                arr.flags.writeable = False
            self._views["sorted"] = view
        return view

    @property
    def descriptor(self) -> DatasetDescriptor | None:
        """The descriptor set by ``condition``, or None before it."""
        return self._descriptor

    @property
    def normalize(self) -> bool:
        """Whether ``condition`` z-scores contexts and queries with the descriptor."""
        return self._normalize

    @property
    def features(self) -> np.ndarray | None:
        """The descriptor's features, read-only, or None before ``condition``."""
        return self._features

    def condition(self, descriptor: DatasetDescriptor, normalize: bool = True) -> None:
        """Key contexts and queries through ``descriptor`` from now on.

        With ``normalize`` they are z-scored with its statistics, otherwise
        used raw; either way they carry its features. The key inputs are
        rebuilt on their next request.
        """
        if descriptor.dim != self._dim:
            raise DataError(
                f"descriptor has dimension {descriptor.dim}, store contexts have {self._dim}"
            )
        features = descriptor_features(descriptor)
        features.flags.writeable = False
        self._descriptor, self._features = descriptor, features
        self._normalize, self._keys = bool(normalize), None

    def _keyed(self, contexts) -> np.ndarray:
        """Contexts (or one query) as ``condition`` keys them."""
        if self._descriptor is None:
            raise DataError("the store has no descriptor: call condition() first")
        if self._normalize:
            return normalize_context(contexts, self._descriptor)
        return np.asarray(contexts, dtype=np.float64)

    def _key_rows(self, contexts: np.ndarray) -> np.ndarray:
        rows = self._keyed(contexts)
        if not np.all(np.isfinite(rows)):
            raise DataError("a store context is not finite as a retrieval key input")
        return rows

    def query(self, x) -> tuple[np.ndarray, np.ndarray]:
        """A query context as encoders and the gate read it, and the descriptor features."""
        return self._keyed(x), self._features

    def key_inputs(self) -> np.ndarray:
        """Contexts as retrieval key inputs: one column per entry, in ring order.

        Columns are the contexts as ``condition`` keys them above a row of
        ones, written once when the array is built, so ``[A | b] @
        key_inputs`` keys every entry, bias included, in one GEMM. The
        read-only result has shape (p + 1, len(store)). Ring position ``j``
        holds chronological entry ``(j - start) % capacity``, and
        ``chronological`` puts arrays laid out this way oldest first. The
        array behind the view is built on first request after ``condition``
        and then kept by ``append`` at O(p) each. Raises ``DataError``
        before ``condition``.
        """
        if self._keys is None:
            columns = np.ones((self._dim + 1, self.capacity))
            columns[:-1, : self._size] = self._key_rows(self._contexts[: self._size]).T
            self._keys = columns
        view = self._keys[:, : self._size]
        view.flags.writeable = False
        return view

    def chronological(self, ring: np.ndarray) -> np.ndarray:
        """``ring``, laid out along its last axis like ``key_inputs``, oldest first."""
        if self._start == 0:
            return ring
        return np.concatenate((ring[..., self._start :], ring[..., : self._start]), axis=-1)

    @classmethod
    def from_arrays(
        cls, X, y, capacity: int | None = None, start_time: int = 0
    ) -> "CalibrationStore":
        """Store holding the last ``capacity`` rows of contexts ``X`` and residuals ``y``.

        Row ``i`` gets time index ``start_time + i``; ``capacity`` defaults
        to the number of rows. Input is validated once, then the most recent
        rows are written into the ring.
        """
        y = float_array(y, "y")
        start_time = check_int(start_time, "start_time")
        X = float_array(X, "X")
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
            raise DataError(
                f"store needs (n, p) contexts and n residuals, got shapes {X.shape} and {y.shape}"
            )
        if y.size == 0:
            raise DataError("cannot build a store from zero entries")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("store contexts and residuals must be finite")
        store = cls(y.size if capacity is None else capacity, X.shape[1])
        n = min(y.size, store.capacity)
        store._contexts[:n] = X[-n:]
        store._residuals[:n] = y[-n:]
        store._times[:n] = start_time + np.arange(y.size - n, y.size)
        store._size = store._arrivals = n
        return store


@dataclass(frozen=True)
class DatasetDescriptor:
    """Componentwise statistics of the initial calibration contexts."""

    dataset_id: int
    mu: np.ndarray
    sigma: np.ndarray
    log_n: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if mu.shape != sigma.shape or mu.ndim != 1:
            raise DataError("descriptor mu and sigma must be matching 1-D vectors")
        if np.any(sigma <= 0.0):
            raise DataError("descriptor sigma must be strictly positive (floored)")

    @property
    def dim(self) -> int:
        return int(self.mu.size)


def signed_log1p(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x))


def descriptor_features(descriptor: DatasetDescriptor) -> np.ndarray:
    """Conditioning vector for the hypernetwork and gate.

    Uses scale-free summaries — dataset id, compressed mu/sigma shape, and
    the log calibration count — so rescaling a series leaves retrieval
    unchanged while cross-dataset conditioning stays informative.
    """
    shape = signed_log1p(descriptor.mu / descriptor.sigma)
    return np.concatenate(
        [[float(descriptor.dataset_id)], shape, [descriptor.log_n]]
    )


def descriptor_feature_dim(context_dim: int) -> int:
    return context_dim + 2


def encoder_inputs(contexts_t: np.ndarray, features: np.ndarray) -> np.ndarray:
    """The (2p + 2, B) hypernetwork and gate input: keyed contexts (p, B) above ``features``.

    Column j is the ``[query_z; feats]`` input of one query, contiguous: the
    block is F-ordered, the transpose of a C-ordered (B, 2p + 2) array.
    """
    p, B = contexts_t.shape
    block = np.empty((p + features.size, B), order="F")
    block[:p] = contexts_t
    block[p:] = features[:, None]
    return block


def compute_descriptor(contexts: np.ndarray, dataset_id: int = 0) -> DatasetDescriptor:
    """Population mean/std of the initial calibration contexts, plus log count.

    ``sigma`` is floored componentwise at ``DEFAULT_SIGMA_FLOOR`` so constant
    features never divide by zero downstream.
    """
    contexts = np.asarray(contexts, dtype=np.float64)
    if contexts.ndim != 2 or contexts.shape[0] == 0:
        raise DataError("compute_descriptor needs a non-empty (n, p) context matrix")
    mu = contexts.mean(axis=0)
    sigma = contexts.std(axis=0)
    sigma = np.maximum(sigma, DEFAULT_SIGMA_FLOOR)
    return DatasetDescriptor(
        dataset_id=int(dataset_id),
        mu=mu,
        sigma=sigma,
        log_n=float(np.log(contexts.shape[0])),
    )


def normalize_context(context: np.ndarray, descriptor: DatasetDescriptor) -> np.ndarray:
    """Z-score a context (or a row matrix of contexts) with descriptor stats."""
    context = np.asarray(context, dtype=np.float64)
    return (context - descriptor.mu) / descriptor.sigma


# ---------------------------------------------------------------------------
# forecast sources
# ---------------------------------------------------------------------------


class ForecastSource(ABC):
    """Point-forecast backbone interface: history in, one-step forecast out."""

    @abstractmethod
    def point_forecast(self, history: np.ndarray, time_index: int) -> float:
        ...


class NaiveForecast(ForecastSource):
    """Last observed value."""

    def point_forecast(self, history: np.ndarray, time_index: int) -> float:
        history = np.asarray(history, dtype=np.float64)
        if history.size == 0:
            raise DataError("naive forecast needs at least one past value")
        return float(history[-1])


class SeasonalNaiveForecast(ForecastSource):
    """Value one season (``period`` steps) back; falls back to the earliest value."""

    def __init__(self, period: int):
        if period < 1:
            raise DataError("seasonal period must be >= 1")
        self.period = int(period)

    def point_forecast(self, history: np.ndarray, time_index: int) -> float:
        history = np.asarray(history, dtype=np.float64)
        if history.size == 0:
            raise DataError("seasonal forecast needs at least one past value")
        if history.size < self.period:
            return float(history[0])
        return float(history[-self.period])


class PrecomputedForecast(ForecastSource):
    """Forecasts cached by time index; a missing index fails loudly."""

    def __init__(self, forecasts: dict[int, float]):
        self._forecasts = {int(k): float(v) for k, v in forecasts.items()}
        if any(not np.isfinite(v) for v in self._forecasts.values()):
            raise DataError("precomputed forecasts must be finite")

    def point_forecast(self, history: np.ndarray, time_index: int) -> float:
        try:
            return self._forecasts[int(time_index)]
        except KeyError:
            raise ForecastMissingError(
                f"no precomputed forecast for time index {time_index}"
            ) from None

    def __len__(self) -> int:
        return len(self._forecasts)


def make_forecast_source(kind: str, path: str | None = None) -> ForecastSource:
    """Build a source from a config string: ``naive``, ``seasonal:<s>``, ``file``."""
    if kind == "naive":
        return NaiveForecast()
    if kind.startswith("seasonal:"):
        return SeasonalNaiveForecast(int(kind.split(":", 1)[1]))
    if kind == "file":
        if path is None:
            raise DataError("forecast kind 'file' needs a forecast CSV path")
        return load_forecast_csv(path)
    raise DataError(f"unknown forecast source {kind!r}")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def load_series_csv(path: str | Path, column: str) -> TimeSeries:
    """Load one numeric column (selected by header name) as a series.

    Distinct failure modes raise distinct errors: missing file, missing
    column, non-numeric cell (reported with its row number), empty series.
    """
    path = Path(path)
    if not path.exists():
        raise FileMissingError(f"series file not found: {path}")
    values: list[float] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or column not in header:
            raise ColumnMissingError(
                f"column {column!r} not found in {path} (columns: {header})"
            )
        col = header.index(column)
        # plain csv.reader keeps blank lines visible (as empty rows), so a
        # blank value row fails loudly instead of being skipped
        for row_number, row in enumerate(reader, start=1):
            cell = row[col] if len(row) > col else None
            try:
                value = float(cell)
            except (TypeError, ValueError):
                raise NonNumericCellError(
                    f"non-numeric cell at row {row_number} in column {column!r}: {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise NonNumericCellError(
                    f"non-finite value at row {row_number} in column {column!r}"
                )
            values.append(value)
    if not values:
        raise EmptySeriesError(f"no data rows in {path}")
    return TimeSeries(values=np.asarray(values), name=path.stem)


def load_forecast_csv(path: str | Path) -> PrecomputedForecast:
    """Load a (time_index, forecast) CSV into a precomputed source."""
    path = Path(path)
    if not path.exists():
        raise FileMissingError(f"forecast file not found: {path}")
    forecasts: dict[int, float] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"time_index", "forecast"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ColumnMissingError(
                f"forecast CSV {path} must have columns {sorted(required)}"
            )
        for row_number, row in enumerate(reader, start=1):
            try:
                idx = int(row["time_index"])
                value = float(row["forecast"])
            except (TypeError, ValueError):
                raise NonNumericCellError(
                    f"bad forecast row {row_number} in {path}: {row!r}"
                ) from None
            forecasts[idx] = value
    if not forecasts:
        raise EmptySeriesError(f"no forecast rows in {path}")
    return PrecomputedForecast(forecasts)
