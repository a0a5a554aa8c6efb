"""Run the benchmark alternately in two checkouts and compare their end-to-end metrics.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload eval_baselines \\
        --seed 11 --seconds 18 --pairs 10

``--workload`` may be given more than once, and ``--workload all`` stands
for every workload in the change's ``BENCHMARK.json``. The workloads run in
turn, each through all its pairs, and each gets its own summary.

Each pair runs ``python3 bench/run.py`` once in each checkout, one after the
other, parent first in even pairs and the change first in odd ones, so a
slow phase of the machine falls on both sides. For every end-to-end metric
in the change's ``BENCHMARK.json`` it prints the per-pair values, each
side's median and quartiles, and the pairs the change won in the metric's
``better`` direction, then two verdicts:

- ``claim``: met when the change won at least 9 in 10 of the pairs (a tie
  counts for neither side) and its median is better than the parent's by
  more than the parent's interquartile range;
- ``bound``: within when the change's median is worse than the parent's
  by no more than the metric's ``bound``, a fraction of the parent's median.

It refuses to summarise, with exit code 1, when any run fails or reports
``correct: false``.

Only the standard library is used, and nothing is written into either
checkout: runs write no bytecode, and the ``.bench_out`` directory a run
makes there is removed again when the run left it empty and it was not
there before.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout: str) -> dict:
    """The JSON object a bench run prints on its last non-empty line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def require_correct(i: int, pair: tuple[dict, dict]) -> None:
    for side, result in zip(("parent", "change"), pair):
        if result.get("correct") is not True:
            raise ValueError(f"pair {i}: the {side} run is not correct "
                             f"({result.get('failed')} of {result.get('attempted')} failed)")


def claim_verdict(rows: list[tuple[float, float]], lower: bool) -> str:
    """Whether the change meets the claim rule over (parent, change) pairs."""
    won = sum((c < p) if lower else (c > p) for p, c in rows)
    q1, q3 = quartiles([p for p, _ in rows])
    gain = statistics.median([p for p, _ in rows]) - statistics.median([c for _, c in rows])
    gain = gain if lower else -gain
    met = 10 * won >= 9 * len(rows) and gain > q3 - q1
    return (f"claim {'met' if met else 'not met'}: won {won} of {len(rows)}, "
            f"median better by {gain:.6g} against the parent's IQR {q3 - q1:.6g}")


def bound_verdict(rows: list[tuple[float, float]], lower: bool, bound: float) -> str:
    """Whether the change's median is worse than the parent's by at most ``bound`` of it."""
    parent = statistics.median([p for p, _ in rows])
    change = statistics.median([c for _, c in rows])
    delta = change - parent if lower else parent - change
    worse = delta / abs(parent) if parent else (math.inf if delta > 0 else 0.0)
    return (f"bound {'within' if worse <= bound else 'beyond'}: median {100 * abs(worse):.1f}% "
            f"{'worse' if worse >= 0 else 'better'}, against a bound of {100 * bound:g}%")


def summarise(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> str:
    """A table per metric of (parent, change) results; ``ValueError`` if a run is not correct."""
    for i, pair in enumerate(pairs):
        require_correct(i, pair)
    out = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        rows = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                if name in p["metrics"] and name in c["metrics"]]
        if not rows:
            continue
        won = sum((c < p) if lower else (c > p) for p, c in rows)
        tied = sum(c == p for p, c in rows)
        out.append(f"{name} ({spec['unit']}, {spec['better']} is better): "
                   f"change won {won} of {len(rows)} pairs" + (f" ({tied} tied)" if tied else ""))
        out.extend(f"  pair {i}: {p:.6g} -> {c:.6g}" for i, (p, c) in enumerate(rows))
        for label, values in (("parent", [p for p, _ in rows]), ("change", [c for _, c in rows])):
            q1, q3 = quartiles(values)
            out.append(f"  {label}: median {statistics.median(values):.6g} "
                       f"[q1 {q1:.6g}, q3 {q3:.6g}, IQR {q3 - q1:.3g}]")
        out.append(f"  {claim_verdict(rows, lower)}")
        out.append(f"  {bound_verdict(rows, lower, spec['bound'])}")
    return "\n".join(out)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run in ``checkout``, leaving no ``.bench_out`` it did not find there."""
    out_dir = checkout / ".bench_out"
    existed = out_dir.exists()
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True, check=False)
    finally:
        if not existed and out_dir.is_dir() and not any(out_dir.iterdir()):
            out_dir.rmdir()
    try:
        return parse_result(proc.stdout)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"{checkout}: exit {proc.returncode}, no result ({exc}): "
                         f"{proc.stderr.strip()[-500:]}") from None


def workload_names(requested: list[str], spec: dict) -> list[str]:
    """The requested workloads in order, each once, with ``all`` for every one in ``spec``."""
    known = [w["name"] for w in spec["workloads"]]
    names: list[str] = []
    for name in requested:
        for one in known if name == "all" else [name]:
            if one not in known:
                raise ValueError(f"unknown workload {one!r}; BENCHMARK.json has {known}")
            if one not in names:
                names.append(one)
    return names


def run_pairs(checkouts: tuple[Path, Path], workload: str, seed: int, seconds: float,
              n_pairs: int) -> list[tuple[dict, dict]]:
    """``n_pairs`` alternated (parent, change) runs; ``ValueError`` at the first incorrect one."""
    pairs = []
    for i in range(n_pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        results = {side: run_once(checkouts[side], workload, seed, seconds) for side in order}
        pairs.append((results[0], results[1]))
        require_correct(i, pairs[-1])
        print(f"{workload} pair {i} done", file=sys.stderr, flush=True)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json, or all; may repeat")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    checkouts = (args.parent.resolve(), args.change.resolve())
    spec = json.loads((checkouts[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for workload in workload_names(args.workload, spec):
            pairs = run_pairs(checkouts, workload, args.seed, args.seconds, args.pairs)
            print(f"{workload} seed={args.seed} seconds={args.seconds:g} pairs={args.pairs}",
                  flush=True)
            print(summarise(pairs, spec["end_to_end"]), flush=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
