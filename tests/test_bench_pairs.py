"""``scripts/bench_pairs.py`` on canned bench output; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "steps_per_s", "unit": "steps/s", "better": "higher", "bound": 0.25},
    {"name": "step_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def bench_stdout(steps_per_s, step_p50_ms, correct=True):
    """What ``bench/run.py`` prints: metric lines, a provenance line, then the result."""
    metrics = {"steps_per_s": {"value": steps_per_s, "unit": "steps/s"},
               "step_p50_ms": {"value": step_p50_ms, "unit": "ms"}}
    return "\n".join([
        "eval_baselines seed=11 seconds=18 trace=0",
        f"  steps_per_s    {steps_per_s} steps/s",
        json.dumps({"provenance": {"seed": 11}}),
        json.dumps({"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
                    "metrics": metrics}),
        "",
    ])


def test_summary_counts_wins_by_each_metrics_direction():
    runs = [((100.0, 0.05), (120.0, 0.04)), ((110.0, 0.04), (105.0, 0.03)),
            ((90.0, 0.06), (130.0, 0.07))]
    pairs = [(bench_pairs.parse_result(bench_stdout(*p)), bench_pairs.parse_result(bench_stdout(*c)))
             for p, c in runs]
    text = bench_pairs.summarise(pairs, END_TO_END)
    assert "steps_per_s (steps/s, higher is better): change won 2 of 3 pairs" in text
    assert "step_p50_ms (ms, lower is better): change won 2 of 3 pairs" in text
    assert "  pair 1: 110 -> 105" in text
    assert "  parent: median 100 [q1 95, q3 105, IQR 10]" in text
    assert "  change: median 120 [q1 112.5, q3 125, IQR 12.5]" in text
    assert "fit_s" not in text  # no run reported it


def test_one_pair_has_its_value_as_both_quartiles():
    pair = (bench_pairs.parse_result(bench_stdout(100.0, 0.05)),
            bench_pairs.parse_result(bench_stdout(100.0, 0.05)))
    text = bench_pairs.summarise([pair], END_TO_END)
    assert "change won 0 of 1 pairs (1 tied)" in text
    assert "  change: median 0.05 [q1 0.05, q3 0.05, IQR 0]" in text


def test_an_incorrect_run_refuses_the_summary():
    good = bench_pairs.parse_result(bench_stdout(100.0, 0.05))
    bad = bench_pairs.parse_result(bench_stdout(200.0, 0.01, correct=False))
    with pytest.raises(ValueError, match="pair 1: the change run is not correct"):
        bench_pairs.summarise([(good, good), (good, bad)], END_TO_END)


def test_output_without_a_result_line_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.parse_result("")
    with pytest.raises(ValueError):
        bench_pairs.parse_result("Traceback (most recent call last):\n  boom\n")
