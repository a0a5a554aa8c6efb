import numpy as np
import pytest

from rarecp.conformal import build_interval
from rarecp.data import CalibrationEntry, CalibrationStore, NaiveForecast, SplitSpec, TimeSeries
from rarecp.errors import DataError, NotFittedError, NumericError
from rarecp.estimators import RareCP, SplitConformal
from rarecp.harness import EvalConfig, run_chronological_eval


class TestSplitConformal:
    def test_fit_predict(self):
        rng = np.random.default_rng(0)
        residuals = rng.standard_normal(500)
        est = SplitConformal(alpha=0.2).fit(None, residuals)
        interval = est.predict_interval(10.0)
        assert interval.lower < 10.0 < interval.upper
        # roughly the 10%/90% residual quantiles around the forecast
        assert interval.lower == pytest.approx(10 + np.quantile(residuals, 0.1), abs=0.15)
        assert interval.upper == pytest.approx(10 + np.quantile(residuals, 0.9), abs=0.15)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            SplitConformal().predict_interval(0.0)

    def test_observe_evicts_fifo(self):
        est = SplitConformal(capacity=3).fit(None, np.array([1.0, 2.0, 3.0]))
        est.observe(9.0)
        np.testing.assert_array_equal(est.store_.residuals(), [2.0, 3.0, 9.0])

    def test_nexcp_weighting_shifts_toward_recent(self):
        residuals = np.concatenate([np.full(50, -5.0), np.full(50, 5.0)])
        uniform = SplitConformal(weighting="uniform").fit(None, residuals)
        nexcp = SplitConformal(weighting="nexcp", nexcp_lambda=0.8).fit(None, residuals)
        assert nexcp.weighted_support().weights[-1] > uniform.weighted_support().weights[-1]
        assert nexcp.predict_interval(0.0).lower > uniform.predict_interval(0.0).lower

    def test_get_set_params(self):
        est = SplitConformal(alpha=0.3, nexcp_lambda=0.9)
        params = est.get_params()
        assert params["alpha"] == 0.3
        est.set_params(alpha=0.1)
        assert est.alpha == 0.1
        with pytest.raises(ValueError):
            est.set_params(unknown=1)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            SplitConformal().fit(np.zeros((3, 2)), np.zeros(4))

    @pytest.mark.parametrize("forecast", [float("inf"), float("nan")])
    def test_non_finite_forecast_rejected(self, forecast):
        est = SplitConformal().fit(None, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DataError, match="forecast"):
            est.predict_interval(forecast)

    @pytest.mark.parametrize("weighting", ["uniform", "nexcp"])
    def test_interval_matches_weighted_support(self, weighting):
        rng = np.random.default_rng(2)
        est = SplitConformal(weighting=weighting, nexcp_lambda=0.9, capacity=40)
        est.fit(None, rng.choice([-1.0, 0.0, 2.0], size=60))
        for residual in rng.standard_normal(50):
            expected = build_interval(1.0, est.weighted_support(), 0.2)
            got = est.predict_interval(1.0)
            assert (got.lower, got.upper) == (expected.lower, expected.upper)
            est.observe(residual)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(1)
    n, window = 120, 6
    X = rng.standard_normal((n, window + 1))
    y = rng.standard_normal(n) * (1.0 + 2.0 * (X[:, 0] > 0))
    est = RareCP(
        n_experts=2, top_k=8, latent_dim=4, hidden_dim=8, hidden_layers=1,
        gate_hidden_dim=2, window=window, include_forecast=True,
        epochs=4, teacher_epochs=2, batch_size=64, seed=0,
    )
    return est.fit(X, y), X, y


class TestRareCP:

    def test_fit_returns_self_and_predicts(self, fitted):
        est, X, y = fitted
        interval = est.predict_interval(X[0], forecast=3.0)
        assert interval.lower <= interval.upper
        assert interval.alpha_used == 0.2

    def test_support_bounded_by_m_times_k(self, fitted):
        est, X, _ = fitted
        support = est.weighted_support(X[1])
        assert len(support) <= est.n_experts * est.top_k
        assert abs(support.weights.sum() - 1.0) < 1e-9

    def test_observe_appends(self, fitted):
        est, X, _ = fitted
        before = len(est.store_)
        est.observe(X[0], residual=0.5)
        assert len(est.store_) == min(before + 1, est.store_.capacity)

    def test_save_load_identical_intervals(self, fitted, tmp_path):
        est, X, y = fitted
        path = tmp_path / "model.json"
        est.save(path)
        loaded = RareCP.from_checkpoint(path)
        loaded.seed_store(X, y)
        est2 = RareCP(**{**est.get_params()})
        est2.components_ = est.components_
        est2._dataset_id = 0
        est2.seed_store(X, y)
        a = est2.predict_interval(X[2], forecast=1.0)
        b = loaded.predict_interval(X[2], forecast=1.0)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_wrong_length_query_rejected(self, fitted):
        est, X, _ = fitted
        for x in (X[0][:-1], np.append(X[0], 0.0)):
            with pytest.raises(DataError, match="expected 7"):
                est.predict_interval(x, forecast=0.0)
            with pytest.raises(DataError, match="expected 7"):
                est.weighted_support(x)

    @pytest.mark.parametrize("capacity", [120, 1500])
    def test_a_query_keys_the_store_once_and_ranks_it_once(
        self, fitted, tmp_path, monkeypatch, capacity
    ):
        """The benchmark's tracer attributes retrieval through these two module globals."""
        from rarecp import experts

        est, X, y = fitted
        est.save(tmp_path / "model.json")
        served = RareCP.from_checkpoint(tmp_path / "model.json").set_params(capacity=capacity)
        rows = np.random.default_rng(2).standard_normal((capacity, X.shape[1]))
        served.seed_store(rows, np.resize(y, capacity))
        calls = {"normalize_keys": 0, "topk_retrieve": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(experts, name)):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(experts, name, counted)
        served.predict_interval(X[0], forecast=0.0)
        assert calls == {"normalize_keys": 1, "topk_retrieve": 1}

    def test_overflowing_query_raises(self, fitted):
        # the query keys' squared norms overflow; the interval must not be
        # built from all-zero keys, i.e. from the k oldest entries
        est, X, _ = fitted
        with pytest.raises(NumericError):
            est.predict_interval(1e200 * X[0], forecast=0.0)
        with pytest.raises(NumericError):
            est.weighted_support(1e200 * X[0])
        interval = est.predict_interval(X[0], forecast=0.0)
        assert np.isfinite(interval.lower) and np.isfinite(interval.upper)

    def test_seed_store_keeps_time_indices(self, fitted):
        est, X, y = fitted
        est2 = RareCP(**{**est.get_params(), "capacity": 50})
        est2.components_ = est.components_
        est2._dataset_id = 0
        est2.seed_store(X, y, start_time=1000)
        np.testing.assert_array_equal(est2.store_.time_indices(), np.arange(1070, 1120))
        np.testing.assert_array_equal(est2.store_.residuals(), y[70:])
        est2.observe(X[0], residual=0.0)
        assert est2.store_.time_indices()[-1] == 1120
        with pytest.raises(DataError, match="expected 7"):
            est2.seed_store(X[:, :-1], y)

    def test_dimension_mismatch_rejected(self):
        est = RareCP(window=6, include_forecast=True, epochs=1, teacher_epochs=1)
        with pytest.raises(DataError):
            est.fit(np.zeros((10, 3)), np.zeros(10))

    def test_not_fitted_guard(self):
        est = RareCP()
        with pytest.raises(NotFittedError):
            est.predict_interval(np.zeros(65), 0.0)

    def test_get_params_roundtrip(self):
        est = RareCP(top_k=16, beta=6.0)
        clone = RareCP(**est.get_params())
        assert clone.top_k == 16 and clone.beta == 6.0


SMALL = dict(
    n_experts=2, top_k=8, latent_dim=4, hidden_dim=8, hidden_layers=1,
    gate_hidden_dim=2, window=6, include_forecast=True,
    epochs=2, teacher_epochs=1, batch_size=32, seed=3,
)


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if any training starts."""
    from rarecp.training import Trainer

    def refuse(self):
        raise AssertionError("training started before the settings were rejected")

    monkeypatch.setattr(Trainer, "run", refuse)


class TestBadSettings:
    @pytest.mark.parametrize(
        "setting",
        [{"top_k": 0}, {"beta": 0.0}, {"beta": -1.0}, {"beta": float("nan")},
         {"beta": float("inf")}, {"activation": "gelu"}, {"latent_dim": 0},
         {"hidden_layers": 0}],
        ids=repr,
    )
    def test_rarecp_rejects_model_setting_before_training(self, setting, no_training):
        rng = np.random.default_rng(4)
        with pytest.raises(DataError):
            RareCP(**{**SMALL, **setting}).fit(
                rng.standard_normal((40, 7)), rng.standard_normal(40)
            )

    @pytest.mark.parametrize(
        "setting", [{"batch_size": 2}, {"tau_p": 0.0}, {"tau_end": -1e-4}], ids=repr
    )
    def test_rarecp_rejects_train_setting_before_training(self, setting, no_training):
        rng = np.random.default_rng(4)
        with pytest.raises(DataError):
            RareCP(**{**SMALL, **setting}).fit(
                rng.standard_normal((40, 7)), rng.standard_normal(40)
            )

    @pytest.mark.parametrize(
        "setting",
        [{"lambda_anchor": float("nan")}, {"batch_size": 3.5}, {"epochs": 1.5},
         {"latent_dim": 4.5}, {"seed": 1.5}, {"seed": -1}, {"top_k": 6.5}, {"n_cycles": 2.5},
         {"hidden_dim": 0}, {"gate_hidden_dim": 0}],
        ids=repr,
    )
    def test_rarecp_rejects_a_fractional_count_or_non_finite_weight_before_training(
        self, setting, no_training
    ):
        """Unchecked, each would train without its term, be truncated, or fail inside numpy."""
        rng = np.random.default_rng(4)
        with pytest.raises(DataError):
            RareCP(**{**SMALL, **setting}).fit(
                rng.standard_normal((40, 7)), rng.standard_normal(40)
            )

    def test_rarecp_zero_capacity_rejected_before_training(self, no_training):
        rng = np.random.default_rng(5)
        with pytest.raises(DataError, match="capacity"):
            RareCP(**SMALL, capacity=0).fit(rng.standard_normal((40, 7)), rng.standard_normal(40))

    @pytest.mark.parametrize(
        "setting",
        [{"weighting": "magic", "nexcp_lambda": 7.0}, {"weighting": "magic"},
         {"nexcp_lambda": 7.0}, {"weighting": "nexcp", "nexcp_lambda": 0.0},
         {"nexcp_lambda": float("nan")}, {"nexcp_lambda": "x"}],
        ids=repr,
    )
    def test_split_conformal_rejects_a_bad_weighting_when_fitted(self, setting):
        """These were accepted by fit, and a uniform window ignored a bad nexcp_lambda."""
        with pytest.raises(DataError, match="weighting|nexcp_lambda"):
            SplitConformal(**setting).fit(None, np.arange(10.0))

    @pytest.mark.parametrize(
        "setting",
        [{"nexcp_lambda": 7.0}, {"weighting": "magic"}, {"nexcp_lambda": float("nan")},
         {"weighting": "nexcp", "nexcp_lambda": 0.0}],
        ids=repr,
    )
    def test_split_conformal_set_params_rechecks_a_fitted_weighting(self, setting):
        """A fitted window served [0, 9] after ``set_params(nexcp_lambda=7.0)``."""
        est = SplitConformal().fit(None, np.arange(10.0))
        with pytest.raises(DataError, match="weighting|nexcp_lambda"):
            est.set_params(**setting)
        assert (est.weighting, est.nexcp_lambda) == ("uniform", 0.99)
        est.set_params(weighting="nexcp", nexcp_lambda=0.5)
        assert (est.weighting, est.nexcp_lambda) == ("nexcp", 0.5)

    def test_split_conformal_serves_a_numeric_string_nexcp_lambda_as_its_float(self):
        """A fitted "0.5" raised a bare TypeError from ``baseline_interval`` when it served."""
        y = np.arange(10.0)

        def bounds(est):
            interval = est.predict_interval(0.0)
            return interval.lower, interval.upper

        def nexcp(nexcp_lambda):
            return SplitConformal(weighting="nexcp", nexcp_lambda=nexcp_lambda).fit(None, y)

        est = nexcp("0.5")
        assert bounds(est) == bounds(nexcp(0.5))
        est.set_params(nexcp_lambda="0.25")
        assert type(est.nexcp_lambda) is float
        assert bounds(est) == bounds(nexcp(0.25))
        with pytest.raises(DataError, match="nexcp_lambda"):
            est.set_params(nexcp_lambda="half")
        with pytest.raises(DataError, match="nexcp_lambda"):
            SplitConformal(weighting="nexcp", nexcp_lambda="half").fit(None, y)

    def test_split_conformal_zero_capacity_rejected(self):
        with pytest.raises(DataError, match="capacity"):
            SplitConformal(capacity=0).fit(None, np.arange(10.0))

    @pytest.mark.parametrize("capacity", [2.5, 3.7, "4", float("nan")], ids=repr)
    @pytest.mark.parametrize(
        "entry_point", ["RareCP.fit", "SplitConformal.fit", "CalibrationStore.from_arrays",
                        "run_chronological_eval"],
    )
    def test_non_integer_capacity_rejected(self, entry_point, capacity, no_training):
        """Unchecked, a fractional capacity was truncated and "4" or nan escaped as
        TypeError or ValueError."""
        rng = np.random.default_rng(5)
        X, y = rng.standard_normal((40, 7)), rng.standard_normal(40)
        call = {
            "RareCP.fit": lambda: RareCP(**SMALL, capacity=capacity).fit(X, y),
            "SplitConformal.fit": lambda: SplitConformal(capacity=capacity).fit(None, y),
            "CalibrationStore.from_arrays": lambda: CalibrationStore.from_arrays(X, y, capacity),
            "run_chronological_eval": lambda: run_chronological_eval(
                TimeSeries(values=rng.standard_normal(80)), SplitSpec(), NaiveForecast(),
                "uniform", EvalConfig(window=4, capacity=capacity),
            ),
        }[entry_point]
        with pytest.raises(DataError, match="capacity"):
            call()

    def test_relu_activation_is_accepted(self):
        rng = np.random.default_rng(6)
        est = RareCP(**{**SMALL, "activation": "relu"})
        est.fit(rng.standard_normal((40, 7)), rng.standard_normal(40))
        assert est.components_.model.activation == "relu"


NON_NUMERIC_INPUTS = {
    "predict_interval forecast 'abc'": lambda est, X, y, path: est.predict_interval(X[0], "abc"),
    "predict_interval forecast None": lambda est, X, y, path: est.predict_interval(X[0], None),
    "predict_interval alpha 'a'":
        lambda est, X, y, path: est.predict_interval(X[0], 0.0, alpha="a"),
    "predict_interval x of strings":
        lambda est, X, y, path: est.predict_interval(["a"] * X.shape[1], 0.0),
    "observe residual 'a'": lambda est, X, y, path: est.observe(X[0], "a"),
    "observe residual None": lambda est, X, y, path: est.observe(X[0], None),
    "observe time_index nan":
        lambda est, X, y, path: est.observe(X[0], 0.5, time_index=float("nan")),
    "observe time_index 1e9 + 0.5":
        lambda est, X, y, path: est.observe(X[0], 0.5, time_index=1e9 + 0.5),
    "seed_store ragged X":
        lambda est, X, y, path: est.seed_store([list(X[0]), list(X[1][:-1])], y[:2]),
    "from_checkpoint dataset_id 'a'":
        lambda est, X, y, path: RareCP.from_checkpoint(path, dataset_id="a"),
    "fit y of strings": lambda est, X, y, path: RareCP(**SMALL).fit(X, ["a"] * len(X)),
    "SplitConformal.observe context 'ab'":
        lambda est, X, y, path: SplitConformal().fit(None, y).observe(0.5, context="ab"),
    "SplitConformal.predict_interval 'a'":
        lambda est, X, y, path: SplitConformal().fit(None, y).predict_interval("a"),
}


def _store_state(store):
    """The store's length and copies of its chronological arrays, as bytes."""
    views = (store.time_indices(), store.residuals(), store.contexts())
    return len(store), *(view.tobytes() for view in views)


@pytest.mark.parametrize("case", list(NON_NUMERIC_INPUTS))
def test_non_numeric_input_raises_data_error(fitted, tmp_path, no_training, case):
    est, X, y = fitted
    path = tmp_path / "model.bin"
    est.save(path)
    store, state, next_time = est.store_, _store_state(est.store_), est._next_time
    with pytest.raises(DataError):
        NON_NUMERIC_INPUTS[case](est, X, y, path)
    assert est.store_ is store and _store_state(store) == state and est._next_time == next_time


def test_a_non_finite_context_is_refused_before_the_store_changes():
    est = SplitConformal().fit(None, [1.0, 2.0])
    state = _store_state(est.store_)
    with pytest.raises(DataError, match="not finite"):
        est.observe(1.0, context=[np.nan])
    assert _store_state(est.store_) == state and est._next_time == 2
    store = CalibrationStore(3, 2)
    with pytest.raises(DataError, match="not finite"):
        store.append(CalibrationEntry([np.inf, 1.0], 0.5, 0))
    assert len(store) == 0


COMPLEX_INPUTS = {
    "fit X": lambda est, X, y: RareCP(**SMALL).fit(X.astype(complex), y),
    "fit y": lambda est, X, y: RareCP(**SMALL).fit(X, y.astype(complex)),
    "predict_interval x": lambda est, X, y: est.predict_interval(X[0].astype(complex), 0.0),
    "predict_interval forecast":
        lambda est, X, y: est.predict_interval(X[0], np.complex128(0.5)),
    "observe x": lambda est, X, y: est.observe(X[0].astype(complex), 0.5),
    "observe residual": lambda est, X, y: est.observe(X[0], np.complex128(0.5)),
    "seed_store X": lambda est, X, y: est.seed_store(X[:10].astype(complex), y[:10]),
    "seed_store y": lambda est, X, y: est.seed_store(X[:10], y[:10].astype(complex)),
    "SplitConformal.fit y": lambda est, X, y: SplitConformal().fit(None, y.astype(complex)),
    "CalibrationStore.from_arrays X":
        lambda est, X, y: CalibrationStore.from_arrays(X.astype(complex), y),
}


@pytest.mark.parametrize("case", list(COMPLEX_INPUTS))
def test_complex_input_raises_data_error(fitted, no_training, case):
    """Complex input, even with no imaginary part, is refused rather than cast to its real part."""
    est, X, y = fitted
    store, state, next_time = est.store_, _store_state(est.store_), est._next_time
    with pytest.raises(DataError, match="real"):
        COMPLEX_INPUTS[case](est, X, y)
    assert est.store_ is store and _store_state(store) == state and est._next_time == next_time


def test_same_seed_fits_write_identical_checkpoints(tmp_path):
    rng = np.random.default_rng(7)
    X, y = rng.standard_normal((70, 7)), rng.standard_normal(70)
    RareCP(**SMALL).fit(X, y).save(tmp_path / "a.ckpt")
    RareCP(**SMALL).fit(X, y).save(tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_fit_serves_like_a_reload_seeded_with_the_same_rows(tmp_path):
    # with capacity < len(y) the window holds only the last rows, and both
    # paths condition retrieval on that window's descriptor
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((120, 7)), rng.standard_normal(120)
    X[:60] = 3.0 * X[:60] + 2.0  # the evicted rows have other statistics
    fitted = RareCP(**SMALL, capacity=60).fit(X, y)
    fitted.save(tmp_path / "model.bin")
    loaded = RareCP.from_checkpoint(tmp_path / "model.bin").set_params(capacity=60)
    loaded.seed_store(X, y)
    for x in X[60::6]:
        a, b = fitted.predict_interval(x, 0.0), loaded.predict_interval(x, 0.0)
        assert (a.lower, a.upper) == (b.lower, b.upper)


def test_a_dataset_id_the_model_was_not_trained_on_is_refused(fitted, tmp_path):
    est, X, y = fitted
    path = tmp_path / "model.bin"
    est.save(path)
    for dataset_id in (5, -1):
        with pytest.raises(DataError, match="not trained on dataset"):
            RareCP.from_checkpoint(path, dataset_id=dataset_id)
        with pytest.raises(DataError, match="not trained on dataset"):
            RareCP.from_components(est.components_, dataset_id)
    assert RareCP.from_checkpoint(path, dataset_id=0).components_.dataset_ids == (0,)


@pytest.mark.parametrize("change", [{"normalize_contexts": False}, {"top_k": 1}])
def test_seed_store_refuses_model_parameters_changed_since_training(tmp_path, change):
    """A changed model parameter never silently serves a model trained another way."""
    rng = np.random.default_rng(9)
    X = rng.standard_normal((80, 7)) * 3.0 + 1.0
    y = rng.standard_normal(80) * (1.0 + 2.0 * (X[:, 0] > 1.0))
    est = RareCP(**SMALL).fit(X, y)
    est.save(tmp_path / "model.ckpt")
    trained = {name: est.get_params()[name] for name in change}
    before = est.predict_interval(X[5], 0.0)
    for served in (est, RareCP.from_checkpoint(tmp_path / "model.ckpt")):
        served.set_params(**change)
        with pytest.raises(DataError, match="trained with"):
            served.seed_store(X, y)
    est.set_params(**trained, capacity=40)
    assert est.predict_interval(X[5], 0.0) == before  # the store was not replaced
    est.seed_store(X, y)
    assert len(est.store_) == 40


def test_serving_refuses_model_parameters_changed_since_training():
    """``predict_interval`` and ``weighted_support`` serve only the model as trained."""
    rng = np.random.default_rng(9)
    X = rng.standard_normal((80, 7)) * 3.0 + 1.0
    y = rng.standard_normal(80) * (1.0 + 2.0 * (X[:, 0] > 1.0))
    est = RareCP(**SMALL).fit(X, y)
    before = est.predict_interval(X[5], 0.0)
    est.set_params(top_k=1, normalize_contexts=False)
    for serve in (lambda: est.predict_interval(X[5], 0.0), lambda: est.weighted_support(X[5])):
        with pytest.raises(DataError, match="'top_k': 8, 'normalize_contexts': True"):
            serve()
    est.set_params(top_k=8)
    with pytest.raises(DataError, match="trained with {'normalize_contexts': True}:"):
        est.predict_interval(X[5], 0.0)
    est.set_params(normalize_contexts=True, alpha=0.1, capacity=40)
    assert est.predict_interval(X[5], 0.0, alpha=0.2) == before
    assert est.predict_interval(X[5], 0.0) != before
    est.set_params(top_k=1).fit(X, y)
    assert len(est.weighted_support(X[5]).residuals) <= SMALL["n_experts"]


def test_a_new_capacity_takes_effect_at_the_next_seed_store():
    rng = np.random.default_rng(9)
    X, y = rng.standard_normal((80, 7)), rng.standard_normal(80)
    est = RareCP(**SMALL).fit(X, y)
    before = est.predict_interval(X[5], 0.0)
    est.set_params(capacity=10)
    assert est.get_params()["capacity"] == 10
    assert (est.store_.capacity, len(est.store_)) == (80, 80)
    assert est.predict_interval(X[5], 0.0) == before
    est.seed_store(X, y)
    assert (est.store_.capacity, len(est.store_)) == (10, 10)


def test_descriptor_is_the_stores_and_read_only(fitted):
    est, X, y = fitted
    assert RareCP().descriptor_ is None
    assert est.descriptor_ is est.store_.descriptor is not None
    with pytest.raises(AttributeError):
        est.descriptor_ = None


def test_every_config_field_is_a_run_key_and_a_rarecp_parameter():
    from dataclasses import fields

    from rarecp.config import RunConfig
    from rarecp.training import ModelConfig, TrainConfig, config_from

    names = {f.name for cls in (ModelConfig, TrainConfig) for f in fields(cls)} - {"audit"}
    assert names <= {f.name for f in fields(RunConfig)}
    assert names <= set(RareCP().get_params())
    est = RareCP(epochs=7, top_k=5, normalize_contexts=False)
    assert (est.train_config().epochs, est.model_config().top_k) == (7, 5)
    assert est.model_config().normalize_contexts is False
    assert config_from(TrainConfig, RunConfig(seed=9)) == TrainConfig(seed=9)


def _defaults(declaration) -> dict:
    """The defaults a dataclass or a callable declares, by parameter name."""
    import dataclasses
    import inspect

    if dataclasses.is_dataclass(declaration):
        return {f.name: f.default for f in dataclasses.fields(declaration)
                if f.default is not dataclasses.MISSING}
    return {name: p.default for name, p in inspect.signature(declaration).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_every_default_declared_twice_has_the_same_value():
    """Settings that ``ModelConfig`` and ``TrainConfig`` do not own are declared in
    several places; each shared one must agree."""
    from rarecp.training import ModelConfig

    declared = {
        "RareCP": {**_defaults(RareCP), **_defaults(RareCP.fit)},
        "ModelConfig": _defaults(ModelConfig),
        "EvalConfig": _defaults(EvalConfig),
        "SplitConformal": _defaults(SplitConformal),
    }
    by_name: dict[str, dict] = {}
    for where, defaults in declared.items():
        for name, value in defaults.items():
            by_name.setdefault(name, {})[where] = value
    shared = {name: values for name, values in by_name.items() if len(values) > 1}
    for name, values in shared.items():
        assert len({repr(v) for v in values.values()}) == 1, f"{name} defaults differ: {values}"
    assert {"alpha", "nexcp_lambda", "capacity", "window", "include_forecast",
            "dataset_id"} <= set(shared)


# every public setting and its default, as released: a key dropped, renamed,
# retyped or re-defaulted must fail here
RARECP_PARAMS = {
    "alpha": 0.2, "n_experts": 3, "top_k": 32, "beta": 12.0, "latent_dim": 32,
    "hidden_dim": 96, "hidden_layers": 2, "activation": "tanh", "encoder_kind": "hypernetwork",
    "gate_hidden_dim": 4, "window": 64, "include_forecast": True, "normalize_contexts": True,
    "lambda_anchor": 5.0, "lambda_entropy": 0.02, "student_lr": 0.001, "gate_lr": 0.004,
    "teacher_lr": 0.001, "epochs": 100, "teacher_epochs": 20, "batch_size": 256,
    "tau_start": 0.05, "tau_end": 0.0001, "tau_p": 0.0005, "n_cycles": 4, "capacity": None,
    "seed": 0,
}
RUN_KEYS = {
    "series_csv": ("str", ""), "target_column": ("str", "y"), "forecast": ("str", "naive"),
    "forecast_csv": ("str", ""), "train_frac": ("float", 0.6), "cal_frac": ("float", 0.15),
    "test_frac": ("float", 0.25), "window": ("int", 64), "include_forecast": ("bool", True),
    "normalize_contexts": ("bool", True), "capacity": ("int", 0), "dataset_id": ("int", 0),
    "strict_split": ("bool", False), "n_experts": ("int", 3), "top_k": ("int", 32),
    "beta": ("float", 12.0), "latent_dim": ("int", 32), "hidden_dim": ("int", 96),
    "hidden_layers": ("int", 2), "activation": ("str", "tanh"),
    "encoder_kind": ("str", "hypernetwork"), "gate_hidden_dim": ("int", 4),
    "lambda_anchor": ("float", 5.0), "lambda_entropy": ("float", 0.02),
    "student_lr": ("float", 0.001), "gate_lr": ("float", 0.004), "teacher_lr": ("float", 0.001),
    "epochs": ("int", 100), "teacher_epochs": ("int", 20), "batch_size": ("int", 256),
    "tau_start": ("float", 0.05), "tau_end": ("float", 0.0001), "tau_p": ("float", 0.0005),
    "n_cycles": ("int", 4), "alpha": ("float", 0.2), "aci_gamma": ("float", 0.01),
    "aci_alpha_min": ("float", 0.01), "aci_alpha_max": ("float", 0.99),
    "nexcp_lambda": ("float", 0.99), "synth_block_length": ("int", 500),
    "synth_blocks": ("int", 8), "synth_level_low": ("float", 0.0),
    "synth_level_high": ("float", 20.0), "synth_sigma_low": ("float", 1.0),
    "synth_sigma_high": ("float", 5.0), "synth_amplitude": ("float", 0.0),
    "synth_period": ("int", 24), "seed": ("int", 0),
}


def test_the_public_settings_keep_their_names_types_and_defaults(tmp_path, monkeypatch):
    import inspect
    from dataclasses import fields

    from rarecp.config import SEED_ENV_VAR, RunConfig, load_config

    params = RareCP().get_params()
    assert params == RARECP_PARAMS
    assert {name: type(value) for name, value in params.items()} == {
        name: type(value) for name, value in RARECP_PARAMS.items()}
    signature = inspect.signature(RareCP)
    assert {name: p.default for name, p in signature.parameters.items()} == RARECP_PARAMS
    with pytest.raises(TypeError, match="foo"):
        RareCP(foo=1)
    est = RareCP().set_params(top_k=5, alpha=0.1, capacity=40, tau_p=1e-3)
    assert est.get_params() == {**RARECP_PARAMS, "top_k": 5, "alpha": 0.1, "capacity": 40,
                                "tau_p": 1e-3}
    assert RareCP(**est.get_params()).get_params() == est.get_params()

    assert {f.name: (f.type, f.default) for f in fields(RunConfig)} == RUN_KEYS
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert RunConfig() == load_config() == RunConfig(**{k: d for k, (_, d) in RUN_KEYS.items()})
    path = tmp_path / "every.cfg"
    path.write_text("".join(f"{key} = {default}\n" for key, (_, default) in RUN_KEYS.items()))
    assert load_config(path) == RunConfig()
