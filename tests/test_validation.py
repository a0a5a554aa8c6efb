"""Every public entry point refuses bad input with a ``RareCPError`` at the call.

Each case below once escaped as a bare ``TypeError``/``ValueError``/
``ZeroDivisionError``, was accepted, or returned NaN.
"""

import math

import numpy as np
import pytest

from rarecp import (
    AciState,
    CalibrationStore,
    DatasetDescriptor,
    EvalConfig,
    RegimeSeriesConfig,
    RegimeSpec,
    SplitConformal,
    SplitSpec,
    TimeSeries,
    WeightedSupport,
    aci_update,
    baseline_interval,
    baseline_weights,
    build_context,
    build_interval,
    chronological_split,
    compute_descriptor,
    compute_metrics,
    synth_regime_series,
    topk_consistency_probe,
    weighted_cdf,
    winkler_score,
)
from rarecp.data import SeasonalNaiveForecast, make_forecast_source
from rarecp.errors import DataError, RareCPError
from rarecp.experts import HypernetworkParams
from rarecp.gate import GateParams
from rarecp.harness import EvalRecord
from rarecp.training import ModelConfig

nan, inf = math.nan, math.inf


def _support():
    return WeightedSupport(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))


def _store():
    return CalibrationStore.from_arrays(np.zeros((4, 1)), np.arange(4.0))


def _records():
    return [EvalRecord(0, 0.0, -1.0, 1.0, 0.0, True, 2.0, 0.2, "uniform")]


def _probe(beta):
    return topk_consistency_probe(n=10, k_values=(2,), n_queries=2, grid_points=5,
                                  weight_mode="softmax", beta=beta)


BAD_CALLS = {
    "split_spec_string": lambda: SplitSpec("a", 0.15, 0.25),
    "split_spec_nan": lambda: SplitSpec(nan, 0.5, 0.5),
    "split_fractional_n": lambda: chronological_split(100.5, SplitSpec()),
    "series_of_strings": lambda: TimeSeries(["a", "b"]),
    "context_fractional_window": lambda: build_context(np.arange(10.0), 1.0, 2.5),
    "context_history_of_strings": lambda: build_context(["a"], 1.0, 3),
    "context_string_forecast": lambda: build_context(np.arange(10.0), "x", 3),
    "descriptor_of_strings": lambda: compute_descriptor([["a"]]),
    "descriptor_of_nan": lambda: compute_descriptor(np.array([[nan, 1.0]])),
    "descriptor_nan_mu": lambda: DatasetDescriptor(0, [nan], [1.0], 0.0),
    "seasonal_fractional_period": lambda: SeasonalNaiveForecast(2.5),
    "seasonal_string_period": lambda: SeasonalNaiveForecast("a"),
    "seasonal_source_string": lambda: make_forecast_source("seasonal:x"),
    "regime_string_noise": lambda: RegimeSpec(0.0, "a"),
    "regime_nan_noise": lambda: RegimeSpec(0.0, nan),
    "regime_fractional_segment": lambda: RegimeSeriesConfig((RegimeSpec(0.0, 1.0),), (2.5,)),
    "regime_number_for_regimes": lambda: RegimeSeriesConfig(2.5, (5,)),
    "regime_number_for_segments": lambda: RegimeSeriesConfig((RegimeSpec(0.0, 1.0),), 5),
    "aci_update_number_for_state": lambda: aci_update(0.2, True),
    "aci_string_gamma": lambda: AciState.initial(0.2, "a"),
    "support_of_strings": lambda: WeightedSupport(["a"], [1.0]),
    "build_interval_string_forecast": lambda: build_interval("x", _support(), 0.2),
    "baseline_interval_string_forecast": lambda: baseline_interval("x", _store(), 0.2),
    "winkler_string_bound": lambda: winkler_score("a", 1.0, 0.5, 0.2),
    "cdf_string_rho": lambda: weighted_cdf(_support(), "x"),
    "cdf_nan_rho": lambda: weighted_cdf(_support(), nan),
    "metrics_string_std": lambda: compute_metrics(_records(), "x"),
    "probe_zero_beta": lambda: _probe(0),
    "probe_negative_beta": lambda: _probe(-1),
    "probe_infinite_beta": lambda: _probe(inf),
    "probe_nan_beta": lambda: _probe(nan),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_a_rarecp_error_at_the_call(call):
    with pytest.raises(RareCPError):
        call()


@pytest.mark.parametrize("seed", [-1, 2.5, "x", None])
def test_a_seed_must_be_an_integer_of_at_least_0(seed):
    """numpy's ``default_rng`` raised ``TypeError`` or ``ValueError`` for these."""
    config = RegimeSeriesConfig((RegimeSpec(0.0, 1.0),), (5,))
    with pytest.raises(DataError, match="seed"):
        synth_regime_series(config, seed)
    with pytest.raises(DataError, match="seed"):
        topk_consistency_probe(n=10, k_values=(2,), n_queries=2, grid_points=5, seed=seed)


def test_a_numeric_string_nexcp_lambda_means_its_number():
    residuals = np.array([3.0, -1.0, 0.5, 2.0, -2.5])
    by_string = baseline_weights(residuals, "nexcp", "0.5")
    by_float = baseline_weights(residuals, "nexcp", 0.5)
    assert by_string.weights.tobytes() == by_float.weights.tobytes()
    store = CalibrationStore.from_arrays(np.zeros((5, 1)), residuals)
    assert baseline_interval(1.0, store, 0.2, "nexcp", "0.5") == baseline_interval(
        1.0, store, 0.2, "nexcp", 0.5)


NON_NUMBER_LAMBDA = {
    "split_conformal": lambda: SplitConformal(weighting="nexcp", nexcp_lambda="half").fit(
        None, np.arange(5.0)),
    "baseline_weights": lambda: baseline_weights(np.arange(5.0), "nexcp", "half"),
    "baseline_interval": lambda: baseline_interval(0.0, _store(), 0.2, "nexcp", "half"),
    "eval_config": lambda: EvalConfig(nexcp_lambda="half"),
}


@pytest.mark.parametrize("call", NON_NUMBER_LAMBDA.values(), ids=NON_NUMBER_LAMBDA.keys())
def test_a_non_number_nexcp_lambda_is_refused_everywhere(call):
    with pytest.raises(DataError, match="nexcp_lambda"):
        call()


UNKNOWN_ACTIVATION = {
    "model_config": lambda: ModelConfig(activation="sigmoid"),
    "hypernetwork": lambda: HypernetworkParams(4, 3, 8, 1, activation="sigmoid"),
    "gate": lambda: GateParams(4, 2, 4, activation="gelu"),
    "not_a_string": lambda: GateParams(4, 2, 4, activation=["tanh"]),
    "hypernetwork_from_arrays": lambda: HypernetworkParams.from_arrays(
        HypernetworkParams(4, 3, 8, 1, "tanh").layers, "sigmoid"),
    "gate_from_arrays": lambda: GateParams.from_arrays(GateParams(4, 2, 4, "tanh").layers, "gelu"),
}


@pytest.mark.parametrize("call", UNKNOWN_ACTIVATION.values(), ids=UNKNOWN_ACTIVATION.keys())
def test_an_unknown_activation_is_refused_not_served_as_relu(call):
    with pytest.raises(DataError, match="unknown activation"):
        call()
