"""Run the benchmark: ``python3 perf/run.py [--workload W] [--seed S]
[--seconds T] [--trace [0|1]]``.

Every workload runs in fresh child interpreters (``child.py``):
``SETUPS`` of them, so that ``setup_s`` is the median of that many cold
set-ups; the last goes on to measure.  Prints every metric by name with its unit;
the last line of standard output is one JSON object.  With ``--trace
0`` the metrics are the end-to-end ones of ``BENCHMARK.json``, taken
with tracing off; with ``--trace 1`` they are the per-layer ones, from a
traced run that also writes ``perf/out/trace-<workload>.json``.

Without ``--workload`` every workload runs in turn and the last line
maps workload name to its result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import calibrate

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SETUPS = 5
#: A child that takes longer than this is hung, not slow.
CHILD_TIMEOUT_S = 170


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool) -> dict:
    """One child, to completion; its last stdout line, parsed."""
    command = [
        sys.executable, str(PERF / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
        "--spawn-cal", repr(calibrate.measure().wall),
        "--spawned-at", repr(calibrate.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 names: List[dict]) -> dict:
    """The contract's result object for one workload."""
    setups = [spawn(workload, seed, seconds, trace, setup_only=True)
              for _ in range(SETUPS - 1)]
    measured = spawn(workload, seed, seconds, trace, setup_only=False)
    values = dict(measured["metrics"])
    values["setup_s"] = statistics.median(
        run["setup_s"] for run in setups + [measured])
    # A layer the workload does not execute did no work and took no time.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in names}
    return {
        "correct": measured["failed"] == 0
        and not values.get("bench.trace_problems", 0),
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }


def show(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:42s} {shown:>16s} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload and args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    results: Dict[str, dict] = {}
    for workload in [args.workload] if args.workload else workloads:
        results[workload] = run_workload(workload, args.seed, seconds,
                                         args.trace, names)
        show(workload, results[workload])
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
