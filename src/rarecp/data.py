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
from rarecp.validation import (
    check_count, check_fields, check_finite, check_int, check_matrix, check_vector, float_array,
)

FRACTION_SUM_TOL = 1e-9
DEFAULT_SIGMA_FLOOR = 1e-6
DEFAULT_WINDOW = 64
KEY_PANEL = 64  # columns per block of ``CalibrationStore.key_panels``


@dataclass(frozen=True)
class TimeSeries:
    """Univariate target series in file/row order."""

    values: np.ndarray
    name: str = "series"
    frequency_tag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", check_vector(self.values, f"series {self.name!r}"))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.60
    cal_frac: float = 0.15
    test_frac: float = 0.25

    def __post_init__(self):
        check_fields(self)
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
    n = check_count(n, "series length")
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
    history = check_vector(history, "history")
    window = check_count(window, "window")
    if history.size >= window:
        feats = history[-window:]
    else:
        pad = np.full(window - history.size, history[0])
        feats = np.concatenate([pad, history])
    if include_forecast:
        if forecast is None:
            raise DataError("include_forecast=True requires a forecast value")
        feats = np.concatenate([feats, [check_finite(forecast, "forecast")]])
    return np.array(feats, copy=True)


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

    ``sorted_window`` keeps the window in ascending order as well, read in
    place. It is built by one stable argsort on first request and from then
    on updated by every ``append`` (two ``searchsorted`` calls and one shift
    of the span between the evicted and the new value's slots), so a store
    that never asks for it never pays for it.

    ``condition`` fixes the dataset descriptor that training and retrieval
    read every context and query through, and whether contexts are z-scored
    with it. The store then holds the contexts as the encoders see them, as
    key-input columns in ring order above a constant 1 that folds a key map's
    bias into its GEMM, cut into contiguous ``KEY_PANEL``-column blocks
    (``key_panels``). It follows the same pattern: built on first request
    after ``condition``, then kept by every ``append`` with the column's p
    key entries. ``key_inputs`` reads the columns as one (p + 1, n) array.
    ``query`` reads a query the same way and attaches the descriptor's
    ``features``.

    ``key_mirror`` keeps the key inputs rounded to float32 beside them, with
    each column's float64 2-norm, for retrieval's float32 candidate filter
    (``experts.normalize_keys``). It too is built on first request after
    ``condition`` and then kept by every ``append``; it costs about
    4 (p + 1) capacity bytes for the mirror and 8 capacity for the norms.
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
        self._keys: np.ndarray | None = None  # (panels, p + 1, KEY_PANEL)
        # float32 copy of ``_keys`` and its column norms; None until first requested
        self._mirror: tuple[np.ndarray, np.ndarray] | None = None

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
            panel, j = divmod(pos, KEY_PANEL)
            self._keys[panel, :-1, j] = column
        if self._mirror is not None:
            keys32, norms = self._mirror
            keys32[panel, :, j : j + 1], norms[panel, j : j + 1] = _mirror(
                self._keys[panel, :, j : j + 1]
            )
        self._arrivals += 1
        self._views.clear()

    def _update_sorted(self, residual: float) -> None:
        """Evict the oldest value from the sorted window and insert ``residual``.

        Equal values sit in arrival order, so the evicted (oldest) value is
        the leftmost of its equals and the new one goes right of all of them.
        """
        values, arrivals = self._sorted
        n = self._size
        window = values[:n]
        j = int(window.searchsorted(residual, side="right"))
        i = n  # while the window fills, the free slot past the end
        if n == self.capacity:
            i = int(window.searchsorted(self._residuals[self._start], side="left"))
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

    def sorted_window(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Ascending residuals, each one's arrival number, and the oldest entry's.

        Read-only views of the buffers ``append`` keeps sorted (ties in arrival
        order), changed by the next ``append``; arrival minus oldest is position.
        """
        n, oldest = self._size, self._arrivals - self._size
        if self._sorted is None:
            order, free = np.argsort(self.residuals(), kind="stable"), (0, self.capacity - n)
            self._sorted = (np.pad(self.residuals()[order], free), np.pad(order + oldest, free))
        values, arrivals = self._sorted[0][:n], self._sorted[1][:n]
        values.flags.writeable = arrivals.flags.writeable = False
        return values, arrivals, oldest

    def sorted_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """A snapshot of ``sorted_window``: ascending residuals and their positions.

        Position 0 is the oldest entry, so this is exactly ``residuals()[order],
        order`` for a stable argsort ``order``. The read-only arrays are
        copies, which later appends leave unchanged.
        """
        view = self._views.get("sorted")
        if view is None:
            values, arrivals, oldest = self.sorted_window()
            view = (values.copy(), arrivals - oldest)
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
        used raw; either way they carry its features. The key inputs and
        their mirror are rebuilt on their next request.
        """
        if descriptor.dim != self._dim:
            raise DataError(
                f"descriptor has dimension {descriptor.dim}, store contexts have {self._dim}"
            )
        features = descriptor_features(descriptor)
        features.flags.writeable = False
        self._descriptor, self._features = descriptor, features
        self._normalize, self._keys, self._mirror = bool(normalize), None, None
        self._views.pop("keys", None)

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

    def key_panels(self, ring: np.ndarray | None = None) -> np.ndarray:
        """The contexts as retrieval key inputs, in (panels, p + 1, KEY_PANEL) blocks.

        Ring position ``j`` is column ``j % KEY_PANEL`` of block ``j //
        KEY_PANEL``; the columns past the last entry are ones. Each column is
        the context as ``condition`` keys it above a 1, written once when the
        array is built, so ``[A | b] @ block`` keys a block, bias included, in
        one GEMM. Ring position ``j`` holds chronological entry ``(j - oldest)
        % capacity``. The read-only view is built on first request after
        ``condition`` and then kept by ``append`` at O(p) each. Raises
        ``DataError`` before ``condition``.

        Given ``ring``, an array of ring positions, returns the columns at
        those positions instead, in that order, copied into contiguous blocks
        of the same shape; the last block is filled out with repeats of them.
        """
        if self._keys is None:
            columns = np.ones((self._dim + 1, -(-self.capacity // KEY_PANEL) * KEY_PANEL))
            columns[:-1, : self._size] = self._key_rows(self._contexts[: self._size]).T
            blocks = columns.reshape(self._dim + 1, -1, KEY_PANEL).transpose(1, 0, 2)
            self._keys = np.ascontiguousarray(blocks)
        if ring is not None:
            index = np.resize(ring, (-(-len(ring) // KEY_PANEL), 1, KEY_PANEL))
            rows = np.arange(self._dim + 1)[:, None]
            return self._keys[index // KEY_PANEL, rows, index % KEY_PANEL]
        view = self._keys[: -(-self._size // KEY_PANEL)]
        view.flags.writeable = False
        return view

    def key_inputs(self) -> np.ndarray:
        """The key-input columns of ``key_panels`` as one (p + 1, len(store)) array, in ring order.

        ``chronological`` puts it oldest first. Read-only; a copy, cached until
        the next ``append`` or ``condition``.
        """
        view = self._views.get("keys")
        if view is None:
            panels = self.key_panels()
            view = panels.transpose(1, 0, 2).reshape(panels.shape[1], -1)[:, : self._size]
            view.flags.writeable = False
            self._views["keys"] = view
        return view

    def key_mirror(self) -> tuple[np.ndarray, np.ndarray]:
        """``key_panels`` rounded to float32, and each column's float64 2-norm.

        Read-only views of shapes (panels, p + 1, KEY_PANEL) and (panels,
        KEY_PANEL), laid out like ``key_panels``; a value beyond float32's
        range reads as an infinity there. Built on first request after
        ``condition`` and then kept by ``append``.
        """
        panels = self.key_panels()
        if self._mirror is None:
            self._mirror = _mirror(self._keys)
        keys32, norms = (part[: panels.shape[0]] for part in self._mirror)
        keys32.flags.writeable = norms.flags.writeable = False
        return keys32, norms

    @property
    def oldest(self) -> int:
        """The ring position of the oldest entry: ring position ``j`` holds
        chronological entry ``(j - oldest) % capacity``."""
        return self._start

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
        y = check_vector(y, "y")
        start_time = check_int(start_time, "start_time")
        X = check_matrix(X, "X")
        if X.shape[0] != y.size:
            raise DataError(
                f"store needs (n, p) contexts and n residuals, got shapes {X.shape} and {y.shape}"
            )
        store = cls(y.size if capacity is None else capacity, X.shape[1])
        n = min(y.size, store.capacity)
        store._contexts[:n] = X[-n:]
        store._residuals[:n] = y[-n:]
        store._times[:n] = start_time + np.arange(y.size - n, y.size)
        store._size = store._arrivals = n
        return store


def _mirror(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Key-input columns (along the last axis) rounded to float32, and each one's 2-norm.

    The squares are summed in row order, so a column's norm does not depend on
    the columns beside it. A value beyond float32's range rounds to an
    infinity, and a column whose squares overflow has an infinite norm.
    """
    with np.errstate(over="ignore"):
        return block.astype(np.float32), np.sqrt(np.cumsum(block * block, axis=-2)[..., -1, :])


@dataclass(frozen=True)
class DatasetDescriptor:
    """Componentwise statistics of the initial calibration contexts."""

    dataset_id: int
    mu: np.ndarray
    sigma: np.ndarray
    log_n: float

    def __post_init__(self):
        for name in ("mu", "sigma"):
            object.__setattr__(self, name, check_vector(getattr(self, name), f"descriptor {name}"))
        if self.mu.shape != self.sigma.shape:
            raise DataError("descriptor mu and sigma must be matching 1-D vectors")
        if np.any(self.sigma <= 0.0):
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
    contexts = check_matrix(contexts, "contexts")
    if contexts.shape[0] == 0:
        raise DataError("compute_descriptor needs a non-empty (n, p) context matrix")
    mu = contexts.mean(axis=0)
    sigma = contexts.std(axis=0)
    sigma = np.maximum(sigma, DEFAULT_SIGMA_FLOOR)
    return DatasetDescriptor(
        dataset_id=check_int(dataset_id, "dataset_id"),
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


class SeasonalNaiveForecast(ForecastSource):
    """Value one season (``period`` steps) back; falls back to the earliest value."""

    def __init__(self, period: int):
        self.period = check_count(period, "seasonal period")

    def point_forecast(self, history: np.ndarray, time_index: int) -> float:
        history = np.asarray(history, dtype=np.float64)
        if history.size == 0:
            raise DataError("seasonal forecast needs at least one past value")
        if history.size < self.period:
            return float(history[0])
        return float(history[-self.period])


class NaiveForecast(SeasonalNaiveForecast):
    """Last observed value: the seasonal naive forecast of period 1."""

    def __init__(self):
        super().__init__(1)


class PrecomputedForecast(ForecastSource):
    """Forecasts cached by time index; a missing index fails loudly."""

    def __init__(self, forecasts: dict[int, float]):
        self._forecasts = {
            check_int(k, "time_index"): check_finite(v, "forecast") for k, v in forecasts.items()
        }

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
        return SeasonalNaiveForecast(check_finite(kind.split(":", 1)[1], "seasonal period"))
    if kind == "file":
        if path is None:
            raise DataError("forecast kind 'file' needs a forecast CSV path")
        return load_forecast_csv(path)
    raise DataError(f"unknown forecast source {kind!r}")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _lines(path: Path, what: str):
    """The lines of the UTF-8 text file ``path``, read lazily for ``csv``.

    A missing file raises ``FileMissingError``; one that cannot be read as
    text (a directory, a binary file) raises ``DataError``.
    """
    if not path.exists():
        raise FileMissingError(f"{what} file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from None


def load_series_csv(path: str | Path, column: str) -> TimeSeries:
    """Load one numeric column (selected by header name) as a series.

    Distinct failure modes raise distinct errors: missing file, missing
    column, non-numeric cell (reported with its row number), empty series.
    """
    path = Path(path)
    values: list[float] = []
    reader = csv.reader(_lines(path, "series"))
    header = next(reader, None)
    if header is None or column not in header:
        raise ColumnMissingError(f"column {column!r} not found in {path} (columns: {header})")
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
    forecasts: dict[int, float] = {}
    reader = csv.DictReader(_lines(path, "forecast"))
    required = {"time_index", "forecast"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ColumnMissingError(f"forecast CSV {path} must have columns {sorted(required)}")
    for row_number, row in enumerate(reader, start=1):
        try:
            idx = int(row["time_index"])
            value = float(row["forecast"])
        except (TypeError, ValueError):
            raise NonNumericCellError(f"bad forecast row {row_number} in {path}: {row!r}") from None
        forecasts[idx] = value
    if not forecasts:
        raise EmptySeriesError(f"no forecast rows in {path}")
    return PrecomputedForecast(forecasts)
