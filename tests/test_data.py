import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecp.data import (
    CalibrationEntry,
    CalibrationStore,
    NaiveForecast,
    PrecomputedForecast,
    SeasonalNaiveForecast,
    SplitSpec,
    TimeSeries,
    build_context,
    chronological_split,
    compute_descriptor,
    descriptor_features,
    load_forecast_csv,
    load_series_csv,
    normalize_context,
)
from rarecp.errors import (
    ColumnMissingError,
    DataError,
    EmptySeriesError,
    FileMissingError,
    ForecastMissingError,
    NonNumericCellError,
)


class TestChronologicalSplit:
    def test_default_fractions_n100(self):
        split = chronological_split(100, SplitSpec())
        assert (split.train, split.cal, split.test) == (
            range(0, 60),
            range(60, 75),
            range(75, 100),
        )

    def test_flooring_remainder_to_test(self):
        split = chronological_split(10, SplitSpec())
        assert (split.train, split.cal, split.test) == (
            range(0, 6),
            range(6, 7),
            range(7, 10),
        )

    def test_empty_segment_errors(self):
        with pytest.raises(DataError):
            chronological_split(3, SplitSpec())

    @given(st.integers(7, 5000))
    @settings(max_examples=200, deadline=None)
    def test_partition_exact(self, n):
        split = chronological_split(n, SplitSpec())
        indices = list(split.train) + list(split.cal) + list(split.test)
        assert indices == list(range(n))

    def test_fraction_validation(self):
        with pytest.raises(DataError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(DataError):
            SplitSpec(0.7, -0.1, 0.4)


class TestBuildContext:
    def test_plain_window(self):
        np.testing.assert_array_equal(
            build_context(np.array([1.0, 2.0, 3.0]), None, 3, include_forecast=False),
            [1.0, 2.0, 3.0],
        )

    def test_with_forecast(self):
        np.testing.assert_array_equal(
            build_context(np.array([1.0, 2.0, 3.0]), 4.0, 3, include_forecast=True),
            [1.0, 2.0, 3.0, 4.0],
        )

    def test_edge_padding(self):
        np.testing.assert_array_equal(
            build_context(np.array([5.0]), None, 3, include_forecast=False),
            [5.0, 5.0, 5.0],
        )

    def test_pure_function(self):
        history = np.array([1.0, 2.0, 3.0, 4.0])
        a = build_context(history, 9.0, 3)
        b = build_context(history, 9.0, 3)
        assert a.tobytes() == b.tobytes()

    def test_empty_history_errors(self):
        with pytest.raises(DataError):
            build_context(np.array([]), 1.0, 3)


class TestDescriptor:
    def test_zero_variance_floored(self):
        contexts = np.array([[1.0, 2.0], [1.0, 2.0]])
        d = compute_descriptor(contexts, dataset_id=3)
        np.testing.assert_array_equal(d.mu, [1.0, 2.0])
        np.testing.assert_array_equal(d.sigma, [1e-6, 1e-6])
        assert d.log_n == pytest.approx(np.log(2))
        assert d.dataset_id == 3

    def test_two_point_stats(self):
        d = compute_descriptor(np.array([[0.0], [2.0]]))
        assert d.mu[0] == pytest.approx(1.0)
        assert d.sigma[0] == pytest.approx(1.0)  # population std

    def test_monte_carlo_standard_normal(self):
        rng = np.random.default_rng(5)
        contexts = rng.standard_normal((1000, 4))
        d = compute_descriptor(contexts)
        assert np.all(np.abs(d.mu) < 0.1)
        assert np.all(np.abs(d.sigma - 1.0) < 0.1)

    def test_empty_errors(self):
        with pytest.raises(DataError):
            compute_descriptor(np.zeros((0, 3)))

    def test_normalize_context(self):
        d = compute_descriptor(np.array([[0.0, 10.0], [2.0, 10.0]]))
        z = normalize_context(np.array([2.0, 10.0]), d)
        assert z[0] == pytest.approx(1.0)
        assert z[1] == pytest.approx(0.0)


def _entry(i, dim=2, residual=None):
    return CalibrationEntry(
        context=np.full(dim, float(i)),
        residual=float(residual if residual is not None else i),
        time_index=i,
    )


class TestCalibrationStore:
    def test_fifo_eviction(self):
        store = CalibrationStore(2, 2)
        for i in range(3):
            store.append(_entry(i))
        np.testing.assert_array_equal(store.residuals(), [1.0, 2.0])
        np.testing.assert_array_equal(store.time_indices(), [1, 2])

    @pytest.mark.parametrize(
        "entry",
        [CalibrationEntry(np.zeros(2), 0.0, float("nan")),
         CalibrationEntry(np.zeros(2), 0.0, 1e9 + 0.5),
         CalibrationEntry(np.zeros(2), "a", 10),
         CalibrationEntry("ab", 0.0, 10)],
        ids=["time nan", "time 1e9 + 0.5", "residual 'a'", "context 'ab'"],
    )
    def test_bad_entry_rejected_before_the_store_changes(self, entry):
        store = CalibrationStore.from_arrays(np.zeros((3, 2)), np.arange(3.0), capacity=3)
        with pytest.raises(DataError):
            store.append(entry)
        assert len(store) == 3
        np.testing.assert_array_equal(store.time_indices(), [0, 1, 2])
        np.testing.assert_array_equal(store.residuals(), np.arange(3.0))

    def test_zero_capacity_rejected(self):
        with pytest.raises(DataError):
            CalibrationStore(0, 2)

    def test_time_index_must_increase(self):
        store = CalibrationStore(5, 2)
        store.append(_entry(3))
        with pytest.raises(DataError):
            store.append(_entry(3))
        with pytest.raises(DataError):
            store.append(_entry(1))

    def test_context_dim_checked(self):
        store = CalibrationStore(5, 2)
        with pytest.raises(DataError):
            store.append(_entry(0, dim=3))

    @given(st.integers(1, 12), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_holds_last_capacity_in_order(self, capacity, n_inserts):
        store = CalibrationStore(capacity, 1)
        for i in range(n_inserts):
            store.append(CalibrationEntry(np.array([float(i)]), float(i), i))
        expected = list(range(max(0, n_inserts - capacity), n_inserts))
        assert len(store) == min(capacity, n_inserts)
        np.testing.assert_array_equal(store.time_indices(), expected)
        np.testing.assert_array_equal(store.residuals(), [float(i) for i in expected])

    def test_views_are_read_only(self):
        store = CalibrationStore.from_arrays(np.zeros((4, 2)), np.arange(4.0))
        store.condition(compute_descriptor(np.zeros((4, 2))))
        views = (store.contexts(), store.residuals(), *store.sorted_residuals(),
                 store.key_inputs())
        for view in views:
            with pytest.raises(ValueError):
                view[0] = 99

    def test_sorted_snapshot_is_kept_by_later_appends(self):
        store = CalibrationStore.from_arrays(np.zeros((5, 1)), [3.0, -0.0, 1.0, 0.0, 1.0])
        values, positions = store.sorted_residuals()
        window, arrivals, oldest = store.sorted_window()
        for view in (values, positions, window, arrivals):
            assert not view.flags.writeable
        np.testing.assert_array_equal(window.view(np.uint64), values.view(np.uint64))
        np.testing.assert_array_equal(arrivals - oldest, positions)
        kept = values.tobytes(), positions.tobytes()
        store.append(CalibrationEntry(np.zeros(1), -4.0, 5))
        store.append(CalibrationEntry(np.zeros(1), 2.0, 6))
        assert (values.tobytes(), positions.tobytes()) == kept
        # 3.0 and -0.0 were evicted
        np.testing.assert_array_equal(store.sorted_residuals()[0].view(np.uint64),
                                      np.array([-4.0, 0.0, 1.0, 1.0, 2.0]).view(np.uint64))
        np.testing.assert_array_equal(store.sorted_residuals()[1], [3, 1, 0, 2, 4])

    def test_from_arrays_keeps_last_capacity_rows(self):
        X = np.arange(20.0).reshape(10, 2)
        y = np.arange(10.0) * 0.5
        store = CalibrationStore.from_arrays(X, y, capacity=4, start_time=100)
        np.testing.assert_array_equal(store.time_indices(), [106, 107, 108, 109])
        np.testing.assert_array_equal(store.residuals(), y[6:])
        np.testing.assert_array_equal(store.contexts(), X[6:])
        store.append(CalibrationEntry(np.zeros(2), -1.0, 110))
        np.testing.assert_array_equal(store.residuals(), [3.5, 4.0, 4.5, -1.0])

    def test_from_arrays_matches_appends(self):
        rng = np.random.default_rng(3)
        X, y = rng.standard_normal((9, 3)), rng.standard_normal(9)
        for capacity in (None, 4, 20):
            bulk = CalibrationStore.from_arrays(X, y, capacity=capacity)
            looped = CalibrationStore(capacity or 9, 3)
            for i in range(9):
                looped.append(CalibrationEntry(X[i], float(y[i]), i))
            np.testing.assert_array_equal(bulk.contexts(), looped.contexts())
            np.testing.assert_array_equal(bulk.residuals(), looped.residuals())
            np.testing.assert_array_equal(bulk.time_indices(), looped.time_indices())

    @pytest.mark.parametrize(
        "X, y",
        [
            (np.zeros((3, 2)), np.zeros(4)),
            (np.zeros(3), np.zeros(3)),
            (np.zeros((0, 2)), np.zeros(0)),
            (np.array([[0.0], [np.inf]]), np.zeros(2)),
            (np.zeros((2, 1)), np.array([0.0, np.nan])),
        ],
    )
    def test_from_arrays_rejects_bad_input(self, X, y):
        with pytest.raises(DataError):
            CalibrationStore.from_arrays(X, y)

    @given(
        st.integers(1, 8),
        st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0]), min_size=1, max_size=40),
        st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_sorted_view_is_stable_argsort(self, capacity, values, first_request):
        """The incrementally kept view equals a fresh stable argsort after every append."""
        store = CalibrationStore(capacity, 1)
        for t, value in enumerate(values):
            store.append(CalibrationEntry(np.zeros(1), value, t))
            if t < first_request:
                continue  # the view is built lazily on its first request
            residuals = store.residuals()
            order = np.argsort(residuals, kind="stable")
            sorted_values, positions = store.sorted_residuals()
            np.testing.assert_array_equal(positions, order)
            # bitwise, so -0.0 and 0.0 keep their own places
            np.testing.assert_array_equal(
                sorted_values.view(np.uint64), residuals[order].view(np.uint64)
            )


class TestKeyInputs:
    @given(
        st.integers(1, 8),
        st.integers(1, 10),
        st.integers(0, 30),
        st.integers(0, 30),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_kept_in_ring_order_by_appends(self, capacity, n_seed, n_appends, first_request,
                                           normalize):
        """Lazily built, then kept per append: equals z-scoring the chronological contexts."""
        rng = np.random.default_rng(capacity * 1000 + n_seed * 31 + n_appends)
        X = rng.standard_normal((n_seed + n_appends, 3))
        store = CalibrationStore.from_arrays(X[:n_seed], np.zeros(n_seed), capacity)
        descriptor = compute_descriptor(X[:n_seed])
        store.condition(descriptor, normalize)
        for t in range(n_seed, n_seed + n_appends + 1):
            if t > n_seed:
                store.append(CalibrationEntry(X[t - 1], 0.0, t - 1))
            if t - n_seed < first_request:
                continue
            view = store.key_inputs()
            expected = store.contexts()
            if normalize:
                expected = normalize_context(expected, descriptor)
            assert view.shape == (4, len(store))
            np.testing.assert_array_equal(store.chronological(view),
                                          np.vstack([expected.T, np.ones(len(store))]))

    def test_rebuilt_on_recondition(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 2))
        store = CalibrationStore.from_arrays(X, np.zeros(6), capacity=4)
        d1 = compute_descriptor(X)
        d2 = compute_descriptor(3.0 * X + 1.0)
        ones = np.ones((1, 4))
        store.condition(d1)
        first = store.key_inputs()
        assert np.shares_memory(store.key_inputs(), first)
        store.condition(d2)
        np.testing.assert_array_equal(store.key_inputs(),
                                      np.vstack([normalize_context(X[2:], d2).T, ones]))
        assert not np.shares_memory(store.key_inputs(), first)
        store.condition(d2, normalize=False)
        np.testing.assert_array_equal(store.key_inputs(), np.vstack([X[2:].T, ones]))

    def test_key_inputs_and_query_raise_before_condition(self):
        store = CalibrationStore.from_arrays(np.zeros((4, 2)), np.zeros(4))
        assert store.descriptor is None
        with pytest.raises(DataError, match="condition"):
            store.key_inputs()
        with pytest.raises(DataError, match="condition"):
            store.query(np.zeros(2))

    @pytest.mark.parametrize("normalize", [True, False])
    def test_key_column_equals_the_query_read_of_its_context(self, normalize):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((9, 3)) * 4.0 + 2.0
        store = CalibrationStore.from_arrays(X[:5], np.zeros(5), capacity=5)
        descriptor = compute_descriptor(X[:5], dataset_id=2)
        store.condition(descriptor, normalize)
        store.key_inputs()
        for t in range(5, 9):  # kept by appends across a wrap-around
            store.append(CalibrationEntry(X[t], 0.0, t))
        keys = store.chronological(store.key_inputs())
        for j, x in enumerate(store.contexts()):
            query_z, feats = store.query(x)
            assert keys[:-1, j].tobytes() == query_z.tobytes()
            assert feats.tobytes() == descriptor_features(descriptor).tobytes()

    def test_ones_row_survives_wrap_around_and_rebuild(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 3))
        store = CalibrationStore.from_arrays(X[:3], np.zeros(3), capacity=5)
        d1, d2 = compute_descriptor(X[:3]), compute_descriptor(2.0 * X[:3])
        store.condition(d1)
        store.key_inputs()
        for t in range(3, 20):  # wraps the 5-entry ring three times
            store.append(CalibrationEntry(X[t], 0.0, t))
            normalize = t < 16
            if t in (11, 16):
                store.condition(d2, normalize)
            view = store.key_inputs()
            np.testing.assert_array_equal(view[-1], np.ones(len(store)))
            np.testing.assert_array_equal(
                store.chronological(view[:-1]),
                normalize_context(store.contexts(), store.descriptor).T if normalize
                else store.contexts().T,
            )

    def test_non_finite_raw_context_rejected_before_append(self):
        store = CalibrationStore.from_arrays(np.zeros((4, 2)), np.arange(4.0))
        store.condition(compute_descriptor(np.zeros((4, 2))), normalize=False)
        store.key_inputs()
        for bad in (np.nan, np.inf):
            with pytest.raises(DataError, match="not finite"):
                store.append(CalibrationEntry(np.array([0.0, bad]), 9.0, 10))
        assert len(store) == 4
        np.testing.assert_array_equal(store.residuals(), np.arange(4.0))
        np.testing.assert_array_equal(store.key_inputs(), np.vstack([np.zeros((2, 4)),
                                                                     np.ones((1, 4))]))

    def test_non_finite_z_column_rejected_before_append(self):
        d = compute_descriptor(np.zeros((4, 2)))  # sigma at the floor, 1e-6
        store = CalibrationStore.from_arrays(np.zeros((4, 2)), np.arange(4.0))
        store.condition(d)
        store.key_inputs()
        with pytest.raises(DataError, match="not finite"), np.errstate(over="ignore"):
            store.append(CalibrationEntry(np.array([0.0, 1e303]), 9.0, 10))
        assert len(store) == 4
        np.testing.assert_array_equal(store.residuals(), np.arange(4.0))
        # a store that never keys its contexts takes the entry
        plain = CalibrationStore.from_arrays(np.zeros((4, 2)), np.arange(4.0))
        plain.append(CalibrationEntry(np.array([0.0, 1e303]), 9.0, 10))
        plain.condition(d)
        with pytest.raises(DataError, match="not finite"), np.errstate(over="ignore"):
            plain.key_inputs()

    def test_descriptor_dimension_checked(self):
        store = CalibrationStore.from_arrays(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(DataError, match="dimension"):
            store.condition(compute_descriptor(np.zeros((4, 3))))


def check_key_mirror(store):
    """The store's float32 mirror equals its key inputs rounded, and its norms fresh ones."""
    keys32, norms = store.key_mirror()
    assert not keys32.flags.writeable and not norms.flags.writeable
    n, width = len(store), store.context_dim + 1
    columns = store.key_inputs()
    mirror = keys32.transpose(1, 0, 2).reshape(width, -1)[:, :n]
    assert mirror.tobytes() == columns.astype(np.float32).tobytes()
    fresh = CalibrationStore.from_arrays(store.contexts(), store.residuals())
    fresh.condition(store.descriptor, store.normalize)
    norms = norms.reshape(-1)[:n]
    assert store.chronological(norms).tobytes() == fresh.key_mirror()[1].reshape(-1)[:n].tobytes()
    np.testing.assert_allclose(norms, np.linalg.norm(columns, axis=0), rtol=1e-15)


class TestKeyMirror:
    @given(
        capacity=st.integers(1, 150), n_seed=st.integers(1, 150), n_appends=st.integers(0, 320),
        first_request=st.integers(0, 320), recondition_at=st.integers(0, 320),
        normalize=st.booleans(), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_kept_by_appends_and_rebuilt_by_condition(
        self, capacity, n_seed, n_appends, first_request, recondition_at, normalize, seed
    ):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_seed + n_appends, 3)) * 10.0 ** rng.uniform(-30, 30, 3)
        store = CalibrationStore.from_arrays(X[:n_seed], np.zeros(n_seed), capacity)
        store.condition(compute_descriptor(X[:n_seed]), normalize)
        for t in range(n_seed, n_seed + n_appends + 1):
            if t > n_seed:  # past capacity appends, the ring wraps
                store.append(CalibrationEntry(X[t - 1], 0.0, t - 1))
            if t - n_seed == recondition_at:
                store.condition(compute_descriptor(2.0 * X[:t] + 1.0), not normalize)
            if t - n_seed >= first_request:
                check_key_mirror(store)

    def test_seeded_store_mirrors_its_key_inputs(self, small_trained):
        from rarecp.estimators import RareCP

        store = small_trained["store"]
        est = RareCP.from_components(small_trained["components"]).set_params(capacity=100)
        est.seed_store(store.contexts(), store.residuals())
        check_key_mirror(est.store_)
        for t, x in enumerate(store.contexts()[:150]):  # wraps the 100-entry ring
            est.observe(x, 0.5)
        check_key_mirror(est.store_)

    def test_a_value_beyond_float32_mirrors_as_an_infinity(self):
        X = np.array([[1.0, 2.0], [1e300, -1e300]])
        store = CalibrationStore.from_arrays(X, np.zeros(2), capacity=3)
        store.condition(compute_descriptor(np.zeros((2, 2))), normalize=False)
        keys32, norms = store.key_mirror()
        np.testing.assert_array_equal(keys32[0, :, :2], [[1.0, np.inf], [2.0, -np.inf], [1.0, 1.0]])
        assert norms[0, 0] == np.sqrt(6.0) and norms[0, 1] == np.inf
        store.append(CalibrationEntry(np.array([-1e300, 0.0]), 0.0, 5))
        assert store.key_mirror()[0][0, 0, 2] == -np.inf

    def test_read_only(self):
        store = CalibrationStore.from_arrays(np.zeros((4, 2)), np.zeros(4))
        store.condition(compute_descriptor(np.zeros((4, 2))))
        for view in store.key_mirror():
            with pytest.raises(ValueError):
                view[0] = 1.0


class TestForecastSources:
    def test_naive(self):
        assert NaiveForecast().point_forecast(np.array([1.0, 7.5]), 2) == 7.5

    def test_seasonal(self):
        source = SeasonalNaiveForecast(2)
        assert source.point_forecast(np.array([1.0, 2.0, 3.0, 4.0]), 4) == 3.0

    def test_seasonal_short_history_falls_back(self):
        source = SeasonalNaiveForecast(5)
        assert source.point_forecast(np.array([2.0, 3.0]), 2) == 2.0

    def test_precomputed_missing_index(self):
        source = PrecomputedForecast({0: 1.0, 1: 2.0})
        assert source.point_forecast(np.array([0.0]), 1) == 2.0
        with pytest.raises(ForecastMissingError):
            source.point_forecast(np.array([0.0]), 10)


class TestCsvIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("y,other\n1.0,a\n2.0,b\n3.0,c\n")
        series = load_series_csv(path, "y")
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("y\n42.5\n")
        assert len(load_series_csv(path, "y")) == 1

    def test_blank_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\n1.0\n\n3.0\n")
        with pytest.raises(NonNumericCellError, match="row 2"):
            load_series_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileMissingError):
            load_series_csv(tmp_path / "nope.csv", "y")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ColumnMissingError):
            load_series_csv(path, "y")

    def test_empty_series(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("y\n")
        with pytest.raises(EmptySeriesError):
            load_series_csv(path, "y")

    def test_forecast_csv(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("time_index,forecast\n0,1.5\n1,2.5\n")
        source = load_forecast_csv(path)
        assert source.point_forecast(np.array([0.0]), 1) == 2.5

    def test_forecast_csv_missing_columns(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("t,f\n0,1.5\n")
        with pytest.raises(ColumnMissingError):
            load_forecast_csv(path)


class TestTimeSeries:
    def test_requires_finite(self):
        with pytest.raises(DataError):
            TimeSeries(values=np.array([1.0, np.inf]))

    def test_requires_nonempty(self):
        with pytest.raises(DataError):
            TimeSeries(values=np.array([]))
