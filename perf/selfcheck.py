"""Does the benchmark agree with itself?  ``python3 perf/selfcheck.py
[--workload W ...] [--runs 10] [--sets 2] [--seconds T]``.

Runs the benchmark as interleaved sets on this checkout -- run ``k`` of
every set uses seed ``k``, set B's run ``k`` follows set A's run ``k``
-- and applies the acceptance rule the bounds in ``BENCHMARK.json`` are
meant to pass with identical code:

- *spread*: within a set, the distance between the first and third
  quartile of a metric's values as a share of their median stays within
  the metric's bound (``setup_s`` is exempt);
- *gap*: a later set's median is not worse than the first set's by more
  than the bound.

Prints every metric's medians, spreads, gap and bound, and exits
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

PERF = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    command = [sys.executable, str(PERF / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    if seconds:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs wrong, "
                         f"{result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args()
    bench = json.loads((PERF.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    failures = 0
    for workload in workloads:
        sets: List[List[Dict[str, float]]] = [[] for _ in range(args.sets)]
        for seed in range(1, args.runs + 1):
            for values in sets:
                values.append(run_once(workload, seed, args.seconds))
        print(f"== {workload}: {args.sets} interleaved sets of "
              f"{args.runs} runs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = [[run[name] for run in values] for values in sets]
            medians = [statistics.median(column) for column in columns]
            spreads = [spread(column) for column in columns]
            gap = max((worsening(medians[0], later, metric["better"])
                       for later in medians[1:]), default=0.0)
            bad = gap > bound or (name != "setup_s"
                                  and max(spreads) > bound)
            failures += bad
            print(f"  {name:18s} medians "
                  + " ".join(f"{m:10.5g}" for m in medians)
                  + f" {metric['unit']:4s} spread "
                  + " ".join(f"{s:6.2%}" for s in spreads)
                  + f"  gap {gap:+7.2%}  bound {bound:.0%}"
                  + ("  FAIL" if bad else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
