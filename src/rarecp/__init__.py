"""Regime-aware retrieval conformal prediction for time-series intervals."""

from rarecp.conformal import (
    AciState,
    PredictionInterval,
    WeightedSupport,
    aci_update,
    baseline_interval,
    baseline_weights,
    build_interval,
    weighted_cdf,
    weighted_quantile,
    winkler_score,
)
from rarecp.data import (
    CalibrationEntry,
    CalibrationStore,
    DatasetDescriptor,
    SplitSpec,
    TimeSeries,
    build_context,
    chronological_split,
    compute_descriptor,
    load_series_csv,
)
from rarecp.estimators import RareCP, SplitConformal
from rarecp.harness import (
    EvalConfig,
    compute_metrics,
    emit_report,
    run_chronological_eval,
    topk_consistency_probe,
)
from rarecp.synthetic import RegimeSeriesConfig, RegimeSpec, synth_regime_series
from rarecp.training import ModelConfig, TrainConfig

__version__ = "0.1.0"

__all__ = [
    "AciState",
    "CalibrationEntry",
    "CalibrationStore",
    "DatasetDescriptor",
    "EvalConfig",
    "ModelConfig",
    "PredictionInterval",
    "RareCP",
    "RegimeSeriesConfig",
    "RegimeSpec",
    "SplitConformal",
    "SplitSpec",
    "TimeSeries",
    "TrainConfig",
    "WeightedSupport",
    "aci_update",
    "baseline_interval",
    "baseline_weights",
    "build_context",
    "build_interval",
    "chronological_split",
    "compute_descriptor",
    "compute_metrics",
    "emit_report",
    "load_series_csv",
    "run_chronological_eval",
    "synth_regime_series",
    "topk_consistency_probe",
    "weighted_cdf",
    "weighted_quantile",
    "winkler_score",
]
