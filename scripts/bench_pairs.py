"""Run the benchmark alternately in two checkouts and compare their end-to-end metrics.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload eval_baselines \\
        --seed 11 --seconds 18 --pairs 10

Each pair runs ``python3 bench/run.py`` once in each checkout, one after the
other, parent first in even pairs and the change first in odd ones, so a
slow phase of the machine falls on both sides. For every end-to-end metric
in the change's ``BENCHMARK.json`` it prints the per-pair values, each
side's median and quartiles, and the pairs the change won in the metric's
``better`` direction. It refuses to summarise, with exit code 1, when any
run fails or reports ``correct: false``.

Only the standard library is used, and nothing is written into either
checkout: runs write no bytecode, and the ``.bench_out`` directory a run
makes there is removed again when the run left it empty and it was not
there before.
"""

from __future__ import annotations

import argparse
import json
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    checkouts = (args.parent.resolve(), args.change.resolve())
    spec = json.loads((checkouts[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = []
    try:
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = {side: run_once(checkouts[side], args.workload, args.seed, args.seconds)
                       for side in order}
            pairs.append((results[0], results[1]))
            require_correct(i, pairs[-1])
            print(f"pair {i} done", file=sys.stderr, flush=True)
        print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} pairs={args.pairs}")
        print(summarise(pairs, spec["end_to_end"]))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
