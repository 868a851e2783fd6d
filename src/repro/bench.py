"""Work-counter ledger: how much deterministic work each experiment does.

Runs every registered experiment at one scale and seed and records,
per experiment, every non-zero counter in ``repro.obs.METRICS`` --
simulator events and solver calls, emulator dispatches, platform
requests, box partials, served requests::

    python -m repro bench                    # refresh BENCH_netsim.json
    python -m repro bench --scale quick      # CI smoke run
    python -m repro bench --only fig06 fig09
    python -m repro bench --profile          # cProfile the slowest one
    python -m repro bench --compare BENCH_netsim.json

The counts are exact and nothing read from a clock or the OS is
written (per-experiment seconds and a total go to stderr only), so the
same code, scale, seed and solver backend give a byte-identical file.
The committed ledger is therefore refreshed by the plain command (a
no-op on unchanged code, like the golden manifest) and its git history
is the record of how work moved.  Wall time and memory are measured by
``perf/`` (``BENCHMARK.json``), table values by ``tests/golden``.

**Regression gate.**  ``--compare <ledger>`` runs the same way and, in
place of writing, diffs against the ledger (:func:`compare_payloads`) on
*equality*: a counter that moved in either direction, a counter present
on one side only, a failing experiment, an experiment missing from
either side (``--only`` subsets compare only what they ran), or a header
mismatch each fail the gate.  There is no tolerance and nothing to
retry.  When work is meant to move, refresh the ledger and commit the
diff.
"""

from __future__ import annotations

import cProfile
import io
import json
import pathlib
import pstats
import sys
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cli import resolve, run_experiment
from repro.experiments import MODULES, SimScale, load
from repro.experiments.common import SCALES
from repro.netsim.vectorized import make_solver
from repro.obs import METRICS

#: Header fields two ledgers must share before their counts compare.
#: ``solver_backend`` is there because the ``netsim.solver.*`` counts
#: differ between the numpy and the stdlib-only max-min solvers.
HEADER = ("schema", "scale", "seed", "solver_backend")


def count_experiment(name: str, scale: SimScale, seed: int = 1,
                     ) -> Tuple[Dict[str, object], float]:
    """Run one experiment; return its ledger record and wall seconds
    (the seconds feed stderr and ``--profile``, never the file)."""
    try:
        result, elapsed = run_experiment(name, scale, seed)
    except Exception as exc:  # noqa: BLE001 - harness must survive
        traceback.print_exc(limit=5)
        return {"experiment": name, "ok": False,
                "error": f"{type(exc).__name__}: {exc}"}, 0.0
    return {
        "experiment": name,
        "ok": True,
        "rows": len(result.rows),
        "counters": {counter: value
                     for counter, value in METRICS.counters().items()
                     if value},
    }, elapsed


def _profile_experiment(name: str, scale: SimScale, out: str,
                        seed: int = 1) -> str:
    exp = load(name)
    profiler = cProfile.Profile()
    profiler.enable()
    exp.run(scale=scale, seed=seed)
    profiler.disable()
    profiler.dump_stats(out)
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(15)
    return buf.getvalue()


def compare_payloads(current: Dict[str, object],
                     baseline: Dict[str, object],
                     subset: bool = False) -> List[str]:
    """Every way ``current`` differs from ``baseline``, one line each
    (empty when the gate passes); pure, so the gate is unit-testable.

    ``subset`` marks a ``--only`` run: baseline experiments it did not
    run are skipped instead of reported missing.
    """
    problems = [
        f"{key} mismatch: ran {current.get(key)!r}, "
        f"baseline has {baseline.get(key)!r}"
        for key in HEADER if current.get(key) != baseline.get(key)
    ]
    if problems:
        return problems  # counts under different headers do not compare
    base_records = {r["experiment"]: r for r in baseline["results"]}
    cur_records = {r["experiment"]: r for r in current["results"]}
    for name in sorted(set(base_records) | set(cur_records)):
        base, cur = base_records.get(name), cur_records.get(name)
        if cur is None:
            if not subset:
                problems.append(f"{name}: in the baseline, not run")
        elif not cur["ok"]:
            problems.append(f"{name}: failing ({cur['error']})")
        elif base is None:
            problems.append(f"{name}: run, missing from the baseline")
        else:
            # (a failing baseline row has no counters: all read as new)
            was, now = base.get("counters", {}), cur["counters"]
            problems.extend(
                f"{name}: {counter} moved "
                f"{was.get(counter, 'absent')} -> "
                f"{now.get(counter, 'absent')}"
                for counter in sorted(set(was) | set(now))
                if was.get(counter) != now.get(counter))
    return problems


def run_bench(scale_name: str = "bench", out: str = "BENCH_netsim.json",
              names: Optional[Sequence[str]] = None, seed: int = 1,
              profile: bool = False, compare: Optional[str] = None) -> int:
    """Count the catalogue (or ``names``); write ``out``, or with
    ``compare`` gate against that ledger instead.  Returns a process
    exit code: non-zero when an experiment errors or the gate trips.
    """
    scale = SCALES[scale_name]
    targets = [resolve(name) for name in names or ()] or list(MODULES)
    results = []
    seconds: Dict[str, float] = {}
    for name in targets:
        print(f"bench {name} (scale={scale.name}) ...", file=sys.stderr)
        record, seconds[name] = count_experiment(name, scale, seed=seed)
        print(f"  {seconds[name]:.3f}s" if record["ok"]
              else f"  FAILED: {record['error']}", file=sys.stderr)
        results.append(record)
    payload = {
        "schema": 2,
        "scale": scale.name,
        "seed": seed,
        "solver_backend": type(make_solver({})).__name__,
        "results": results,
    }
    failures = [r["experiment"] for r in results if not r["ok"]]
    print(f"{len(results) - len(failures)}/{len(results)} ok in "
          f"{sum(seconds.values()):.1f}s", file=sys.stderr)

    if profile and len(failures) < len(results):
        slowest = max(seconds, key=seconds.get)  # failed rows count 0.0 s
        prof_out = str(pathlib.Path(out).with_suffix(".prof"))
        print(f"profiling {slowest} -> {prof_out}", file=sys.stderr)
        print(_profile_experiment(slowest, scale, prof_out, seed=seed))

    if compare is None:
        pathlib.Path(out).write_text(json.dumps(payload, indent=2) + "\n",
                                     encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)
        if failures:
            print(f"failed experiments: {', '.join(failures)}",
                  file=sys.stderr)
        return 1 if failures else 0
    baseline = json.loads(pathlib.Path(compare).read_text(
        encoding="utf-8"))
    problems = compare_payloads(payload, baseline, subset=bool(names))
    if problems:
        print(f"LEDGER DRIFT against {compare}:", file=sys.stderr)
        for line in problems:
            print(f"  - {line}", file=sys.stderr)
        print("if the work was meant to move, refresh with "
              "`python -m repro bench` and commit the diff",
              file=sys.stderr)
        return 1
    print(f"{len(results)} experiment(s) match {compare}", file=sys.stderr)
    return 0
