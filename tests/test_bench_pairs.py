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


def test_claim_verdict_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [(p, p - 1.0) for p in parent]
    faster[3] = (parent[3], parent[3] + 1.0)  # one pair lost: 9 of 10 still won
    assert bench_pairs.claim_verdict(faster, lower=True).startswith("claim met: won 9 of 10")
    slower_step = [(p, p + 1.0) for p in parent]  # higher is better here
    assert bench_pairs.claim_verdict(slower_step, lower=False).startswith("claim met")
    tied = [(p, p) if i < 2 else (p, p - 1.0) for i, p in enumerate(parent)]
    assert bench_pairs.claim_verdict(tied, lower=True).startswith("claim not met: won 8 of 10")
    narrow = [(p, p - 0.05) for p in parent]  # every pair won, by less than the IQR
    assert bench_pairs.claim_verdict(narrow, lower=True).startswith("claim not met: won 10 of 10")


def test_bound_verdict_allows_the_bound_in_the_worse_direction_only():
    def rows(change):
        return [(100.0, change)] * 3

    assert bench_pairs.bound_verdict(rows(124.0), True, 0.25).startswith("bound within")
    assert bench_pairs.bound_verdict(rows(126.0), True, 0.25).startswith("bound beyond")
    assert bench_pairs.bound_verdict(rows(76.0), False, 0.25).startswith("bound within")
    assert bench_pairs.bound_verdict(rows(74.0), False, 0.25).startswith("bound beyond")
    assert bench_pairs.bound_verdict(rows(10.0), True, 0.25) == (
        "bound within: median 90.0% better, against a bound of 25%")


def test_summary_prints_both_verdicts_for_each_metric():
    pair = (bench_pairs.parse_result(bench_stdout(100.0, 0.05)),
            bench_pairs.parse_result(bench_stdout(90.0, 0.05)))
    text = bench_pairs.summarise([pair], END_TO_END)
    assert "  claim not met: won 0 of 1, median better by -10" in text
    assert "  bound within: median 10.0% worse, against a bound of 25%" in text


def _checkouts(tmp_path):
    spec = {"workloads": [{"name": "fit"}, {"name": "eval_baselines"}], "end_to_end": END_TO_END}
    sides = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        sides.append(str(tmp_path / side))
    return sides


def _stub_runs(monkeypatch, incorrect=None):
    """Stub ``run_once``: the change is faster; ``incorrect`` = (checkout name, workload)."""
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload))
        faster = checkout.name == "change"
        correct = (checkout.name, workload) != incorrect
        return bench_pairs.parse_result(
            bench_stdout(120.0 if faster else 100.0, 0.04 if faster else 0.05, correct))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_all_runs_every_workload_in_turn_with_one_summary_each(tmp_path, monkeypatch, capsys):
    calls = _stub_runs(monkeypatch)
    parent, change = _checkouts(tmp_path)
    assert bench_pairs.main([parent, change, "--workload", "all", "--seed", "3",
                             "--pairs", "2"]) == 0
    # each workload's pairs run before the next workload's, parent first in even pairs
    assert calls == [("parent", "fit"), ("change", "fit"), ("change", "fit"), ("parent", "fit"),
                     ("parent", "eval_baselines"), ("change", "eval_baselines"),
                     ("change", "eval_baselines"), ("parent", "eval_baselines")]
    out = capsys.readouterr().out
    assert out.index("fit seed=3 seconds=18 pairs=2") < out.index(
        "eval_baselines seed=3 seconds=18 pairs=2")
    assert out.count("steps_per_s (steps/s, higher is better): change won 2 of 2 pairs") == 2


def test_the_output_ends_with_one_line_per_workload_and_metric(tmp_path, monkeypatch, capsys):
    _stub_runs(monkeypatch)
    parent, change = _checkouts(tmp_path)
    assert bench_pairs.main([parent, change, "--workload", "all", "--seed", "3",
                             "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5] == "summary: medians parent -> change, pairs the change won, bound verdict"
    assert lines[-4:] == [
        "fit steps_per_s: 100 -> 120 steps/s, won 2 of 2, "
        "bound within: median 20.0% better, against a bound of 25%",
        "fit step_p50_ms: 0.05 -> 0.04 ms, won 2 of 2, "
        "bound within: median 20.0% better, against a bound of 25%",
        "eval_baselines steps_per_s: 100 -> 120 steps/s, won 2 of 2, "
        "bound within: median 20.0% better, against a bound of 25%",
        "eval_baselines step_p50_ms: 0.05 -> 0.04 ms, won 2 of 2, "
        "bound within: median 20.0% better, against a bound of 25%",
    ]


def test_repeated_workloads_run_in_the_order_given_and_once_each(tmp_path, monkeypatch, capsys):
    calls = _stub_runs(monkeypatch)
    parent, change = _checkouts(tmp_path)
    argv = [parent, change, "--workload", "eval_baselines", "--workload", "fit",
            "--workload", "eval_baselines", "--seed", "3", "--pairs", "1"]
    assert bench_pairs.main(argv) == 0
    assert [w for _, w in calls] == ["eval_baselines"] * 2 + ["fit"] * 2


def test_an_incorrect_run_in_a_later_workload_refuses_with_exit_1(tmp_path, monkeypatch, capsys):
    calls = _stub_runs(monkeypatch, incorrect=("change", "eval_baselines"))
    parent, change = _checkouts(tmp_path)
    assert bench_pairs.main([parent, change, "--workload", "all", "--seed", "3",
                             "--pairs", "3"]) == 1
    assert calls[-1] == ("change", "eval_baselines")  # no run after the incorrect one
    captured = capsys.readouterr()
    assert "fit seed=3" in captured.out and "eval_baselines seed=3" not in captured.out
    assert "pair 0: the change run is not correct" in captured.err


def test_an_unknown_workload_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    calls = _stub_runs(monkeypatch)
    parent, change = _checkouts(tmp_path)
    assert bench_pairs.main([parent, change, "--workload", "fit", "--workload", "serve",
                             "--seed", "3"]) == 1
    assert calls == []
    assert "unknown workload 'serve'" in capsys.readouterr().err
