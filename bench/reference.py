"""Reference figures: every workload over several seeds, summarized.

Usage (from the repository root):

    python3 bench/reference.py [--seeds 1-10] [--seconds 30] [--trace 0|1]

Runs ``bench/run.py`` once per workload and seed, one after another, and
prints for each workload and metric the median over the seeds, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(quartile distance over median) and the failed share of operations. The
figures in README.md come from this command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import SHAPES

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for workload in SHAPES:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"## {workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"correct {all(r['correct'] for r in results)}, failed share {sorted(shares)}")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {first['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.1%} |")
            print(f"{name} per seed: " + ", ".join(f"{v:.4g}" for v in values), file=sys.stderr)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
