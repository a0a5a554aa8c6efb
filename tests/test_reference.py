"""RareCP serving against the benchmark's independent numpy reference.

``bench/reference.py`` rebuilds each interval from the public components:
each expert's ``emit``, the gate's ``logits``, a full-sort top-k and a
full-sort weighted quantile. The benchmark counts a disagreement as an
incorrect output; this runs the same check without a benchmark run. The
reference file is only imported, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

from rarecp import RareCP
from rarecp.data import PrecomputedForecast
from rarecp.harness import calibration_block
from rarecp.synthetic import clean_component, synth_regime_series, two_regime_config

WINDOW, FIT_N, STEPS = 6, 80, 50

_spec = importlib.util.spec_from_file_location(
    "bench_reference", Path(__file__).resolve().parents[1] / "bench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


@pytest.mark.parametrize(
    "kind", [{"activation": "tanh"}, {"activation": "relu"}, {"encoder_kind": "fixed_affine"}],
    ids=["tanh", "relu", "fixed_affine"],
)
def test_served_intervals_match_the_bench_reference(kind):
    config = two_regime_config(block_length=30, n_blocks=6, levels=(0.0, 12.0))
    series, _ = synth_regime_series(config, seed=5)
    source = PrecomputedForecast(dict(enumerate(clean_component(config))))
    X, r, _ = calibration_block(series, range(WINDOW, WINDOW + FIT_N + STEPS), source, WINDOW, True)
    est = RareCP(n_experts=2, top_k=6, latent_dim=4, hidden_dim=8, hidden_layers=2,
                 window=WINDOW, epochs=1, teacher_epochs=1, batch_size=32, seed=4,
                 capacity=FIT_N, **kind).fit(X[:FIT_N], r[:FIT_N])
    checked = 0
    for x, residual in zip(X[FIT_N:], r[FIT_N:]):
        forecast = float(x[-1])
        interval = est.predict_interval(x, forecast)
        store = est.store_
        lo, hi, ambiguous = reference.rarecp_interval(
            est, store.contexts(), store.residuals(), x, forecast, est.alpha
        )
        if not ambiguous:
            assert reference.matches(interval.lower, lo), (interval, lo, hi)
            assert reference.matches(interval.upper, hi), (interval, lo, hi)
            checked += 1
        est.observe(x, residual)
    assert checked >= 0.8 * STEPS
