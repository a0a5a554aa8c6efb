"""Check that a seed never used while the benchmark was tuned still passes.

    python3 bench/fresh_seed_check.py [--seconds 6] [--seed N]

Seeds below 1000 were used while the benchmark was written and tuned. This
draws a seed of 1000 or more (unless ``--seed`` is given), runs every
workload once with it, untraced, and exits non-zero unless each run ends
with code 0 and reports ``"correct": true``.
"""

from __future__ import annotations

import argparse
import json
import secrets
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    seed = args.seed if args.seed is not None else 1000 + secrets.randbelow(10**6)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        correct = bool(lines) and json.loads(lines[-1]).get("correct") is True
        print(f"seed {seed} {workload}: exit {proc.returncode}, correct {correct}")
        if proc.returncode != 0 or not correct:
            ok = False
            print(proc.stdout[-3000:] + proc.stderr[-3000:])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
