from dataclasses import FrozenInstanceError, astuple, replace

import numpy as np
import pytest

from rarecp.data import (
    CalibrationStore,
    ForecastSource,
    NaiveForecast,
    PrecomputedForecast,
    SplitIndices,
    SplitSpec,
    TimeSeries,
    build_context,
)
from rarecp.conformal import (
    AciState,
    aci_update,
    baseline_weights,
    build_interval,
    winkler_score,
)
from rarecp.errors import DataError, NumericError
from rarecp.estimators import SplitConformal
from rarecp.harness import (
    EvalConfig,
    EvalRecord,
    calibration_block,
    compute_metrics,
    emit_report,
    eval_split_std,
    run_chronological_eval,
    topk_consistency_probe,
)


def zero_forecasts(n):
    return PrecomputedForecast({i: 0.0 for i in range(n)})


class TestChronologicalEval:
    def test_constant_series_perfect_forecasts(self):
        n = 60
        series = TimeSeries(values=np.full(n, 5.0))
        source = PrecomputedForecast({i: 5.0 for i in range(n)})
        cfg = EvalConfig(window=4)
        records = run_chronological_eval(series, SplitSpec(), source, "uniform", cfg)
        assert len(records) == len(list(range(45, 60)))
        for r in records:
            assert r.lower == r.upper == 5.0
            assert r.covered
        assert all(r.winkler == 0.0 for r in records)

    def test_one_insertion_per_test_point(self, monkeypatch):
        appends = []  # (store, its length before the append)
        append = CalibrationStore.append

        def counting_append(store, entry):
            appends.append((store, len(store)))
            return append(store, entry)

        monkeypatch.setattr(CalibrationStore, "append", counting_append)
        rng = np.random.default_rng(0)
        series = TimeSeries(values=rng.standard_normal(80))
        cfg = EvalConfig(window=4, capacity=500)
        records = run_chronological_eval(series, SplitSpec(), NaiveForecast(), "uniform", cfg)
        (store, seed_entries), *_ = appends
        assert all(s is store for s, _ in appends) and len(appends) == len(records)
        assert len(store) == seed_entries + len(records)

    def test_zero_capacity_rejected(self):
        series = TimeSeries(values=np.random.default_rng(2).standard_normal(80))
        with pytest.raises(DataError, match="capacity"):
            run_chronological_eval(
                series, SplitSpec(), NaiveForecast(), "uniform", EvalConfig(window=4, capacity=0)
            )

    def test_alpha_fixed_for_uniform_and_nexcp(self):
        rng = np.random.default_rng(1)
        series = TimeSeries(values=rng.standard_normal(80))
        cfg = EvalConfig(window=4, alpha=0.3)
        for method in ("uniform", "nexcp"):
            records = run_chronological_eval(series, SplitSpec(), NaiveForecast(), method, cfg)
            assert all(r.alpha_used == 0.3 for r in records)

    def test_aci_alpha_moves(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(values=rng.standard_normal(120))
        cfg = EvalConfig(window=4, aci_gamma=0.05)
        records = run_chronological_eval(
            series, SplitSpec(), NaiveForecast(), "aci_uniform", cfg
        )
        assert len({r.alpha_used for r in records}) > 1

    def test_unknown_method(self):
        series = TimeSeries(values=np.arange(40.0))
        with pytest.raises(DataError):
            run_chronological_eval(series, SplitSpec(), NaiveForecast(), "magic",
                                   EvalConfig(window=4))

    def test_rarecp_requires_checkpoint(self):
        series = TimeSeries(values=np.arange(40.0))
        with pytest.raises(DataError):
            run_chronological_eval(
                series, SplitSpec(), NaiveForecast(), "rarecp_checkpoint",
                EvalConfig(window=4),
            )

    def test_rarecp_window_mismatch_rejected(self, small_trained, small_regime_problem):
        prob = small_regime_problem
        cfg = EvalConfig(window=5, include_forecast=True,
                         checkpoint=small_trained["components"])
        with pytest.raises(DataError, match="window"):
            run_chronological_eval(
                prob["series"], prob["split"], prob["source"], "rarecp_checkpoint", cfg
            )

    def test_rarecp_runs_from_components(self, small_trained, small_regime_problem):
        prob = small_regime_problem
        cfg = EvalConfig(window=8, include_forecast=True,
                         checkpoint=small_trained["components"])
        records = run_chronological_eval(
            prob["series"], prob["split"], prob["source"], "rarecp_checkpoint", cfg
        )
        assert len(records) == len(list(prob["split"].test))
        assert all(r.lower <= r.upper for r in records)

    def test_covered_flag_consistent(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(values=rng.standard_normal(100))
        records = run_chronological_eval(
            series, SplitSpec(), NaiveForecast(), "uniform", EvalConfig(window=4)
        )
        for r in records:
            assert r.covered == (r.lower <= r.y <= r.upper)


    @pytest.mark.parametrize("capacity", [5, 60])
    def test_baselines_match_bruteforce_recomputation(self, capacity):
        """Every baseline record equals a full-sort interval over the preceding window."""
        rng = np.random.default_rng(4)
        values = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=90)
        split = SplitIndices(train=range(0, 5), cal=range(5, 35), test=range(35, 90))
        forecasts = {i: float(v) for i, v in enumerate(rng.choice([0.0, 0.5], size=90))}
        cfg = EvalConfig(window=3, capacity=capacity, alpha=0.3, aci_gamma=0.05,
                         nexcp_lambda=0.9)
        series = TimeSeries(values=values)
        residuals = values - np.array([forecasts[i] for i in range(90)])
        for method in ("uniform", "aci_uniform", "nexcp"):
            records = run_chronological_eval(
                series, split, PrecomputedForecast(forecasts), method, cfg
            )
            aci = AciState.initial(cfg.alpha, cfg.aci_gamma)
            for r in records:
                window = residuals[max(split.cal.start, r.time_index - capacity):r.time_index]
                alpha = aci.alpha_t if method == "aci_uniform" else cfg.alpha
                mode = "nexcp" if method == "nexcp" else "uniform"
                expected = build_interval(
                    forecasts[r.time_index],
                    baseline_weights(window, mode=mode, nexcp_lambda=cfg.nexcp_lambda),
                    alpha,
                )
                assert (r.lower, r.upper, r.alpha_used) == (
                    expected.lower, expected.upper, alpha
                )
                aci = aci_update(aci, r.covered)

    @pytest.mark.parametrize("capacity", [12, 30])  # below and equal to the calibration size
    @pytest.mark.parametrize("method", ["uniform", "aci_uniform", "nexcp"])
    def test_baseline_records_equal_the_library_loop(self, method, capacity):
        """Every record, bit for bit, is what SplitConformal serves step by step (plus ACI)."""
        rng = np.random.default_rng(8)
        values = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=90) + rng.choice([0.0, 0.25], 90)
        forecasts = rng.choice([-0.0, 0.0, 0.5], size=90)
        split = SplitIndices(train=range(0, 5), cal=range(5, 35), test=range(35, 90))
        cfg = EvalConfig(window=3, capacity=capacity, alpha=0.3, aci_gamma=0.05,
                         nexcp_lambda=0.9)
        records = run_chronological_eval(
            TimeSeries(values=values), split,
            PrecomputedForecast(dict(enumerate(forecasts.tolist()))), method, cfg,
        )

        cal = slice(split.cal.start, split.cal.stop)
        est = SplitConformal(
            weighting="nexcp" if method == "nexcp" else "uniform",
            nexcp_lambda=cfg.nexcp_lambda, capacity=capacity,
        ).fit(None, values[cal] - forecasts[cal])
        aci = AciState.initial(cfg.alpha, cfg.aci_gamma, cfg.aci_alpha_min, cfg.aci_alpha_max)
        expected = []
        for t in split.test:
            forecast, y = float(forecasts[t]), float(values[t])
            alpha = aci.alpha_t if method == "aci_uniform" else cfg.alpha
            interval = est.predict_interval(forecast, alpha)
            covered = interval.covers(y)
            expected.append(EvalRecord(
                t, forecast, interval.lower, interval.upper, y, covered,
                winkler_score(interval.lower, interval.upper, y, alpha), alpha, method,
            ))
            if method == "aci_uniform":
                aci = aci_update(aci, covered)
            est.observe(y - forecast, time_index=t)

        def bits(record):
            return tuple(float(v).hex() if isinstance(v, float) else v for v in astuple(record))

        assert [bits(r) for r in records] == [bits(r) for r in expected]


class TestEvalConfig:
    @pytest.mark.parametrize(
        "setting",
        [{"window": 0}, {"window": 2.5}, {"capacity": 0}, {"capacity": 2.5},
         {"capacity": "4"}, {"capacity": float("nan")}, {"alpha": 0.0}, {"alpha": 1.0},
         {"alpha": float("nan")}, {"aci_alpha_min": 0.0}, {"aci_alpha_max": 1.0},
         {"aci_alpha_min": 0.5, "aci_alpha_max": 0.4}, {"aci_gamma": -0.01},
         {"aci_gamma": float("inf")}, {"nexcp_lambda": 1.5}, {"nexcp_lambda": 0.0},
         {"nexcp_lambda": "x"}],
        ids=repr,
    )
    def test_bad_setting_rejected_when_made(self, setting):
        with pytest.raises(DataError):
            EvalConfig(**setting)

    @pytest.mark.parametrize(
        "setting", [{"nexcp_lambda": 1.5}, {"aci_gamma": -1.0}, {"capacity": 2.5},
                    {"aci_alpha_min": 0.5, "aci_alpha_max": 0.4}],
        ids=repr,
    )
    def test_uniform_run_no_longer_ignores_a_bad_setting(self, setting):
        series = TimeSeries(values=np.random.default_rng(9).standard_normal(80))
        with pytest.raises(DataError):
            run_chronological_eval(series, SplitSpec(), NaiveForecast(), "uniform",
                                   EvalConfig(window=4, **setting))

    @pytest.mark.parametrize("method", ["uniform", "aci_uniform", "nexcp"])
    def test_zero_window_still_rejected_for_the_baselines(self, method):
        series = TimeSeries(values=np.arange(40.0))
        with pytest.raises(DataError, match="window"):
            run_chronological_eval(series, SplitSpec(), NaiveForecast(), method,
                                   EvalConfig(window=0))

    def test_fields_cannot_be_set_after_the_checks(self):
        """A field set after construction used to run uniform and ACI unchecked."""
        cfg = EvalConfig(window=4)
        for name, value in (("nexcp_lambda", 1.5), ("aci_gamma", -3.0), ("alpha", 0.3)):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, name, value)
        assert (cfg.nexcp_lambda, cfg.aci_gamma, cfg.alpha) == (0.99, 0.01, 0.2)
        with pytest.raises(DataError, match="nexcp_lambda"):
            replace(cfg, nexcp_lambda=1.5)
        assert replace(cfg, capacity=7.0).capacity == 7

    def test_checked_values_are_kept(self):
        cfg = EvalConfig(window=4.0, capacity=np.int64(7), alpha=np.float64(0.25))
        assert (cfg.window, cfg.capacity, cfg.alpha) == (4, 7, 0.25)
        assert type(cfg.window) is int and type(cfg.capacity) is int


class TestLeakageGuard:
    @pytest.mark.parametrize("method", ["uniform", "aci_uniform", "nexcp",
                                        "rarecp_checkpoint"])
    def test_future_permutation_leaves_past_intervals(
        self, method, small_trained, small_regime_problem
    ):
        prob = small_regime_problem
        series = prob["series"]
        split = prob["split"]
        cfg = EvalConfig(window=8, include_forecast=True,
                         checkpoint=small_trained["components"])
        base = run_chronological_eval(series, split, prob["source"], method, cfg)

        test_indices = list(split.test)
        cut = test_indices[len(test_indices) // 2]
        rng = np.random.default_rng(4)
        permuted = series.values.copy()
        future = np.arange(cut + 1, len(series))
        permuted[future] = permuted[rng.permutation(future)]
        shuffled = TimeSeries(values=permuted, name=series.name)

        alt = run_chronological_eval(shuffled, split, prob["source"], method, cfg)
        for r_base, r_alt in zip(base, alt):
            if r_base.time_index > cut:
                break
            assert (r_base.lower, r_base.upper, r_base.alpha_used) == (
                r_alt.lower, r_alt.upper, r_alt.alpha_used
            )


class TestMetrics:
    def test_summary_values(self):
        records = [
            EvalRecord(0, 0.0, -1.0, 1.0, 0.0, True, 2.0, 0.2, "uniform"),
            EvalRecord(1, 0.0, -2.0, 2.0, 5.0, False, 4.0, 0.2, "uniform"),
        ]
        summary = compute_metrics(records, std_y=2.0)
        assert summary.nwink == pytest.approx(1.5)
        assert summary.mean_width == pytest.approx(3.0)
        assert summary.nw == pytest.approx(1.5)
        assert summary.coverage == pytest.approx(0.5)

    def test_all_covered(self):
        records = [
            EvalRecord(i, 0.0, -1.0, 1.0, 0.0, True, 2.0, 0.2, "uniform")
            for i in range(5)
        ]
        assert compute_metrics(records, 1.0).coverage == 1.0

    def test_degenerate_std_rejected(self):
        records = [EvalRecord(0, 0.0, -1.0, 1.0, 0.0, True, 2.0, 0.2, "uniform")]
        with pytest.raises(NumericError, match="degenerate"):
            compute_metrics(records, 0.0)

    def test_empty_records_rejected(self):
        with pytest.raises(DataError):
            compute_metrics([], 1.0)


class TestRescaleMetamorphic:
    @pytest.mark.parametrize("method", ["uniform", "aci_uniform", "nexcp",
                                        "rarecp_checkpoint"])
    def test_nwink_invariant_under_rescaling(
        self, method, small_trained, small_regime_problem
    ):
        prob = small_regime_problem
        series, split = prob["series"], prob["split"]
        cfg = EvalConfig(window=8, include_forecast=True,
                         checkpoint=small_trained["components"])
        base = compute_metrics(
            run_chronological_eval(series, split, prob["source"], method, cfg),
            eval_split_std(series, split),
        )

        c = 2.0  # power of two: exact float scaling
        scaled_series = TimeSeries(values=series.values * c, name=series.name)
        scaled_source = PrecomputedForecast(
            {i: c * prob["source"].point_forecast(None, i) for i in range(len(series))}
        )
        scaled = compute_metrics(
            run_chronological_eval(scaled_series, split, scaled_source, method, cfg),
            eval_split_std(scaled_series, split),
        )
        assert scaled.nwink == pytest.approx(base.nwink, rel=1e-9)
        assert scaled.nw == pytest.approx(base.nw, rel=1e-9)
        assert scaled.coverage == base.coverage


class TestTopkProbe:
    def test_degenerate_constant_residuals(self):
        # constant residual law: any retrieved subset reproduces the true
        # step CDF exactly, so the sup distance is 0 for every k
        from rarecp.harness import _weighted_cdf_on_grid

        grid = np.linspace(-1, 1, 51)
        for k in (1, 4, 10):
            cdf = _weighted_cdf_on_grid(np.zeros(k), np.full(k, 1.0 / k), grid)
            truth = (grid >= 0.0).astype(float)
            assert np.abs(cdf - truth).max() <= 1e-12

    def test_distance_shrinks_with_k(self):
        rows = dict(topk_consistency_probe(n=2000, k_values=(4, 64), n_queries=60,
                                           seed=1))
        assert rows[64] < rows[4]

    def test_full_support_matches_dkw_scale(self):
        n = 2000
        rows = dict(topk_consistency_probe(n=n, k_values=(n,), n_queries=10, seed=2))
        assert rows[n] < 3.0 / np.sqrt(n)

    def test_weight_mode_validation(self):
        with pytest.raises(DataError):
            topk_consistency_probe(n=100, k_values=(4,), n_queries=2, weight_mode="bad")


class TestEmitReport:
    def _records(self, method, n=3):
        return [
            EvalRecord(i, 0.5, -1.0, 1.0, 0.1 * i, True, 2.0, 0.2, method)
            for i in range(n)
        ]

    def test_files_written(self, tmp_path):
        out = tmp_path / "nested" / "report"
        records = {"uniform": self._records("uniform"), "nexcp": self._records("nexcp")}
        summaries = [compute_metrics(v, 1.0) for v in records.values()]
        paths = emit_report(summaries, records, out, manifest={"seed": 0})
        summary_lines = paths["summary"].read_text().strip().splitlines()
        assert len(summary_lines) == 3  # header + two methods
        records_lines = paths["records"].read_text().strip().splitlines()
        assert len(records_lines) == 7
        assert paths["manifest"].exists()

    def test_byte_deterministic(self, tmp_path):
        records = {"uniform": self._records("uniform")}
        summaries = [compute_metrics(records["uniform"], 1.0)]
        p1 = emit_report(summaries, records, tmp_path / "a", manifest={"seed": 1})
        p2 = emit_report(summaries, records, tmp_path / "b", manifest={"seed": 1})
        assert p1["summary"].read_bytes() == p2["summary"].read_bytes()
        assert p1["records"].read_bytes() == p2["records"].read_bytes()
        assert p1["manifest"].read_bytes() == p2["manifest"].read_bytes()


class TestSplitIndicesPath:
    def test_explicit_ranges_accepted(self):
        rng = np.random.default_rng(5)
        series = TimeSeries(values=rng.standard_normal(50))
        split = SplitIndices(train=range(0, 20), cal=range(20, 35), test=range(35, 50))
        records = run_chronological_eval(
            series, split, NaiveForecast(), "uniform", EvalConfig(window=4)
        )
        assert [r.time_index for r in records] == list(range(35, 50))
        assert eval_split_std(series, split) > 0


class _RecordingForecast(ForecastSource):
    """Seasonal-ish forecasts that log each (history length, index) request."""

    def __init__(self):
        self.calls = []

    def point_forecast(self, history, time_index):
        self.calls.append((history.size, time_index))
        return float(history[-1] * 0.5 + history[0] * 0.25)


class TestCalibrationBlock:
    @pytest.mark.parametrize("include_forecast", [True, False])
    def test_rows_equal_build_context_and_forecasts_asked_in_order(self, include_forecast):
        rng = np.random.default_rng(6)
        series = TimeSeries(values=rng.standard_normal(40))
        indices = range(1, 30)  # early indices are edge-padded
        source = _RecordingForecast()
        contexts, residuals, times = calibration_block(series, indices, source, 6,
                                                       include_forecast)
        assert source.calls == [(i, i) for i in indices]
        np.testing.assert_array_equal(times, list(indices))
        for row, i in enumerate(indices):
            history = series.values[:i]
            forecast = source.point_forecast(history, i)
            want = build_context(history, forecast, 6, include_forecast)
            assert contexts[row].tobytes() == want.tobytes()
            assert residuals[row] == series.values[i] - forecast

    def test_bad_inputs_raise_data_error(self):
        series = TimeSeries(values=np.arange(10.0))
        with pytest.raises(DataError, match="past value"):
            calibration_block(series, range(0, 5), NaiveForecast(), 3, True)
        nan_source = PrecomputedForecast({i: 0.0 for i in range(10)})
        nan_source._forecasts[4] = float("nan")
        with pytest.raises(DataError, match="non-finite"):
            calibration_block(series, range(1, 6), nan_source, 3, True)
