"""Benchmark harness: time every experiment, record the trajectory,
and gate CI on regressions against the committed baseline.

Runs each experiment in the registry at one scale and writes
``BENCH_netsim.json``::

    python -m repro bench                    # BENCH scale
    python -m repro bench --scale quick      # CI smoke run
    python -m repro bench --only fig06 fig09
    python -m repro bench --profile          # cProfile the slowest one
    python -m repro bench --compare BENCH_netsim.json --max-regress 0.15

Per experiment the harness records wall time, simulator events and
events/sec, incremental-solver call counts, and the process's peak RSS
high-water mark (``resource.getrusage``; the value is cumulative over
the process, so per-experiment numbers are upper bounds).  The file
also re-times ``fig06`` at ``DEFAULT`` scale against the recorded
pre-optimisation baseline, so solver regressions show up as a falling
``fig06_speedup`` in review.

**Regression gate.**  ``--compare <baseline.json>`` re-times the
baseline's experiments at the baseline's scale/seed and diffs
(:func:`compare_payloads`).  Wall times are machine-dependent, so the
seconds gate normalises by the *median* per-experiment ratio -- a
uniformly 2x-slower CI machine shifts every ratio equally and trips
nothing, while one experiment regressing 2x stands out against the
median.  (Corollary: a single-experiment compare cannot trip the
seconds gate -- the median is its own ratio -- which is why the
deterministic counter gates exist.)  Simulator event and solver-call
counts are machine-independent, so those gate directly: growing more
than ``max_regress`` over baseline fails.  Each compare appends one
JSONL line to the trajectory file (``BENCH_trajectory.jsonl``), the
longitudinal perf record reviewers diff.
"""

from __future__ import annotations

import cProfile
import io
import json
import pathlib
import pstats
import resource
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence

from repro.experiments import (
    DEFAULT,
    MODULES,
    SimScale,
    load,
    resolve,
    unknown_experiment_message,
)
from repro.experiments.common import BENCH, PAPER, QUICK
from repro.obs import METRICS

SCALES: Dict[str, SimScale] = {
    "quick": QUICK, "bench": BENCH, "default": DEFAULT, "paper": PAPER,
}

#: Wall time of ``fig06`` at ``DEFAULT`` scale before the incremental
#: solver landed (commit 1b25238, from-scratch max-min at every event).
#: The acceptance bar for the solver rework is >= 3x over this.
BASELINE = {"fig06_default_seconds": 9.157, "commit": "1b25238"}

#: Smallest elapsed time treated as real (one microsecond); quicker
#: runs are clock-resolution artefacts, not measurements.
_TIMER_FLOOR = 1e-6


def _peak_rss_kb() -> int:
    """Process peak RSS, normalised to KB.

    ``getrusage`` reports ``ru_maxrss`` in *kilobytes* on Linux but in
    *bytes* on macOS (and BSDs), so the raw value was off by 1024x when
    benchmarking on a Mac.  Normalise by platform so ``peak_rss_kb``
    means the same thing everywhere.
    """
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        peak //= 1024
    return peak


def bench_targets(names: Optional[Sequence[str]] = None) -> List[str]:
    """Experiments to time: the ``names`` given (short names and
    prefixes resolve through the registry), else every registered
    experiment."""
    resolved = []
    for name in names or ():
        try:
            resolved.append(resolve(name))
        except KeyError:
            raise SystemExit(
                unknown_experiment_message(name)) from None
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    return resolved or list(MODULES)


def time_experiment(name: str, scale: SimScale, seed: int = 1,
                    ) -> Dict[str, object]:
    """Run one experiment and return its timing record."""
    record: Dict[str, object] = {"experiment": name, "scale": scale.name}
    try:
        exp = load(name)
        METRICS.reset("netsim.")
        started = time.perf_counter()
        result = exp.run(scale=scale, seed=seed)
        elapsed = time.perf_counter() - started
        counters = METRICS.snapshot("netsim.")
        events = counters.get("netsim.events", 0)
        record.update(
            ok=True,
            seconds=round(elapsed, 4),
            rows=len(result.rows),
            events=events,
            # Sub-resolution timings floor at the timer tick rather
            # than reporting a bogus 0.0 rate (which would read as
            # "infinitely slow" and poison rate comparisons).
            events_per_sec=round(events / max(elapsed, _TIMER_FLOOR), 1),
            epochs=counters.get("netsim.epochs", 0),
            solver_calls=counters.get("netsim.solver.solves", 0),
            solver_cache_hits=counters.get("netsim.solver.cache_hits", 0),
            flows_resolved=counters.get("netsim.solver.flows_resolved", 0),
            flows_reused=counters.get("netsim.solver.flows_reused", 0),
            peak_rss_kb=_peak_rss_kb(),
        )
    except Exception as exc:  # noqa: BLE001 - harness must survive
        record.update(
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            trace=traceback.format_exc(limit=5),
        )
    return record


def _time_fig06_default(seed: int = 1, repeat: int = 1) -> float:
    """The acceptance metric: fig06 wall time at DEFAULT scale.

    Best-of-``repeat``: the first run pays cold-start costs (imports,
    allocator warm-up) that are not the solver's.
    """
    exp = load("fig06_fct_cdf")
    best = float("inf")
    for _ in range(max(repeat, 1)):
        started = time.perf_counter()
        exp.run(scale=DEFAULT, seed=seed)
        best = min(best, time.perf_counter() - started)
    return best


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


#: Counter fields compared deterministically by the regression gate.
GATED_COUNTERS = ("events", "epochs", "solver_calls", "flows_resolved")

#: Default per-experiment regression tolerance (15%).
DEFAULT_MAX_REGRESS = 0.15

#: Baseline wall times below this are pure timer noise (a 5 ms
#: experiment jitters far past any sane tolerance); such experiments
#: skip the seconds gate and rely on the deterministic counter gates.
SECONDS_GATE_FLOOR = 0.05

#: Extra timing runs granted to an experiment whose *wall time* (not
#: counters) tripped the gate; the minimum over runs is kept, the
#: standard defence against one-off scheduler noise.  Five attempts,
#: not two: on 1-core CI containers per-row jitter regularly exceeds
#: the 15% margin (identical code flags itself against a minutes-old
#: baseline), and a genuine slowdown reproduces across *every*
#: attempt, so extra attempts only shed false positives.
_RETIME_ATTEMPTS = 5


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def compare_payloads(current: Dict[str, object],
                     baseline: Dict[str, object],
                     max_regress: float = DEFAULT_MAX_REGRESS,
                     ) -> Dict[str, object]:
    """Diff two bench payloads; pure, so the gate is unit-testable.

    Returns ``{"regressions": [...], "rows": [...], "median_ratio": m}``
    where each row carries the per-experiment ratios and each
    regression is a human-readable failure string.  Gates (see module
    docstring): normalised wall time, the deterministic counters in
    :data:`GATED_COUNTERS`, newly failing or missing experiments, and
    a scale mismatch (numbers at different scales are not comparable).
    """
    regressions: List[str] = []
    if current.get("scale") != baseline.get("scale"):
        regressions.append(
            f"scale mismatch: current {current.get('scale')!r} vs "
            f"baseline {baseline.get('scale')!r}")
    base_records = {r["experiment"]: r
                    for r in baseline.get("results", []) if r.get("ok")}
    cur_records = {r["experiment"]: r
                   for r in current.get("results", [])}

    pairs = []
    for name, base in sorted(base_records.items()):
        cur = cur_records.get(name)
        if cur is None:
            continue  # subset runs (--only) compare what they ran
        if not cur.get("ok"):
            regressions.append(f"{name}: now failing "
                               f"({cur.get('error', 'unknown error')})")
            continue
        pairs.append((name, base, cur))
    if not pairs and not regressions:
        regressions.append("no experiments in common with the baseline")

    # Zero-duration rows (sub-tick runs) carry no timing signal: a 0.0
    # on either side would register as an infinite or zero ratio and
    # drag the machine-speed median; such rows gate on counters only.
    ratios = [cur["seconds"] / base["seconds"]
              for _, base, cur in pairs
              if base["seconds"] > 0 and cur["seconds"] > 0]
    median_ratio = _median(ratios) if ratios else 1.0
    # The normalisation exists to forgive a uniformly *slower* machine
    # (everything 2x -> median 2x -> ratios back to 1x).  A median
    # below 1.0 means the machine is now faster than the baseline era;
    # dividing by it would inflate every row and manufacture
    # regressions out of rows that merely failed to speed up as much
    # as the median (best-of-N converges quickest on short rows, so
    # long rows sit above the median systematically).  Clamp: machine
    # speed is only ever a mitigating factor.
    divisor = max(1.0, median_ratio)

    rows = []
    for name, base, cur in pairs:
        row: Dict[str, object] = {"experiment": name}
        if base["seconds"] >= SECONDS_GATE_FLOOR:
            normalised = (cur["seconds"] / base["seconds"]) / divisor
            row["seconds_ratio"] = round(normalised, 3)
            if normalised > 1.0 + max_regress:
                regressions.append(
                    f"{name}: wall time {cur['seconds']:.3f}s is "
                    f"{normalised:.2f}x the baseline "
                    f"{base['seconds']:.3f}s after machine-speed "
                    f"normalisation (limit {1 + max_regress:.2f}x)")
        for field in GATED_COUNTERS:
            base_value = base.get(field, 0)
            cur_value = cur.get(field, 0)
            if not base_value:
                continue
            ratio = cur_value / base_value
            row[f"{field}_ratio"] = round(ratio, 3)
            if ratio > 1.0 + max_regress:
                regressions.append(
                    f"{name}: {field} grew {ratio:.2f}x over baseline "
                    f"({base_value:,} -> {cur_value:,}, "
                    f"limit {1 + max_regress:.2f}x)")
        rows.append(row)
    return {
        "regressions": regressions,
        "rows": rows,
        "median_ratio": round(median_ratio, 4),
        "compared": len(pairs),
    }


def append_trajectory(path: str, entry: Dict[str, object]) -> None:
    """Append one JSONL record to the longitudinal trajectory file."""
    line = json.dumps(entry, sort_keys=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def run_compare(baseline_path: str,
                max_regress: float = DEFAULT_MAX_REGRESS,
                trajectory: str = "BENCH_trajectory.jsonl",
                names: Optional[Sequence[str]] = None,
                seed: Optional[int] = None) -> int:
    """``bench --compare``: re-time against a committed baseline.

    Runs the baseline's experiments (or the ``names`` subset) at the
    baseline's scale and seed, diffs via :func:`compare_payloads`,
    appends a trajectory line, and returns non-zero on any regression.
    The committed baseline file is never rewritten here -- refresh it
    with a plain ``python -m repro bench`` when a change legitimately
    moves the numbers.
    """
    baseline = json.loads(pathlib.Path(baseline_path).read_text(
        encoding="utf-8"))
    scale_name = baseline.get("scale", "bench")
    if scale_name not in SCALES:
        raise SystemExit(f"{baseline_path}: unknown scale {scale_name!r}")
    use_seed = baseline.get("seed", 1) if seed is None else seed
    targets = bench_targets(names) if names else [
        r["experiment"] for r in baseline.get("results", [])
        if r.get("ok")
    ]
    scale = SCALES[scale_name]
    results = []
    for name in targets:
        print(f"compare {name} (scale={scale.name}) ...", file=sys.stderr)
        results.append(time_experiment(name, scale, seed=use_seed))
    current = {
        "schema": 1,
        "scale": scale.name,
        "seed": use_seed,
        "results": results,
    }
    report = compare_payloads(current, baseline, max_regress=max_regress)
    # Wall-time trips get _RETIME_ATTEMPTS confirmation runs (keeping
    # the minimum, the standard defence against scheduler noise); the
    # counter gates are deterministic and never re-run.  A genuine
    # slowdown reproduces across every attempt and still fails.
    for _ in range(_RETIME_ATTEMPTS):
        flaky = sorted({line.split(":", 1)[0]
                        for line in report["regressions"]
                        if "wall time" in line})
        if not flaky:
            break
        for name in flaky:
            print(f"re-time {name} (confirming wall-time regression) ...",
                  file=sys.stderr)
            rerun = time_experiment(name, scale, seed=use_seed)
            if not rerun.get("ok"):
                continue
            for record in results:
                if record["experiment"] == name:
                    record["seconds"] = min(record["seconds"],
                                            rerun["seconds"])
        report = compare_payloads(current, baseline,
                                  max_regress=max_regress)
    # The headline acceptance metric rides along on every compare, so
    # the trajectory records the solver's speed over time, not only
    # pass/fail against the committed baseline.
    fig06_seconds = _time_fig06_default(seed=use_seed)
    entry = {
        "kind": "compare",
        "at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "baseline": baseline_path,
        "scale": scale.name,
        "seed": use_seed,
        "compared": report["compared"],
        "median_ratio": report["median_ratio"],
        "max_regress": max_regress,
        "fig06_default_seconds": round(fig06_seconds, 3),
        "fig06_speedup": round(
            BASELINE["fig06_default_seconds"] / max(fig06_seconds,
                                                    _TIMER_FLOOR), 2),
        "regressions": report["regressions"],
    }
    append_trajectory(trajectory, entry)
    print(f"compared {report['compared']} experiment(s) against "
          f"{baseline_path} (median machine ratio "
          f"{report['median_ratio']}x); trajectory -> {trajectory}",
          file=sys.stderr)
    if report["regressions"]:
        print("REGRESSIONS:", file=sys.stderr)
        for line in report["regressions"]:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print("no regressions", file=sys.stderr)
    return 0


def run_bench(scale_name: str = "bench", out: str = "BENCH_netsim.json",
              names: Optional[Sequence[str]] = None, seed: int = 1,
              profile: bool = False, repeat: int = 1) -> int:
    """Time the catalogue, write ``out``, return a process exit code.

    Non-zero when any experiment errors (CI fails on regressions).
    ``repeat`` times each experiment N times and keeps the fastest
    wall time (counters are deterministic and identical across
    repeats) -- use ``--repeat 3`` when refreshing the committed
    baseline so one scheduler hiccup does not bake an unrepeatably
    fast or slow number into the gate.
    """
    scale = SCALES[scale_name]
    targets = bench_targets(names)
    results = []
    for name in targets:
        print(f"bench {name} (scale={scale.name}) ...", file=sys.stderr)
        record = time_experiment(name, scale, seed=seed)
        for _ in range(max(repeat, 1) - 1):
            if not record["ok"]:
                break
            rerun = time_experiment(name, scale, seed=seed)
            if rerun.get("ok") and rerun["seconds"] < record["seconds"]:
                record = rerun
        if record["ok"]:
            print(f"  {record['seconds']:.3f}s  "
                  f"{record['events_per_sec']:,} events/s  "
                  f"rss {record['peak_rss_kb']:,} KB", file=sys.stderr)
        else:
            print(f"  FAILED: {record['error']}", file=sys.stderr)
        results.append(record)

    fig06_seconds = _time_fig06_default(seed=seed, repeat=repeat)
    payload = {
        "schema": 1,
        "scale": scale.name,
        "seed": seed,
        "baseline": dict(BASELINE),
        "fig06_default_seconds": round(fig06_seconds, 3),
        "fig06_speedup": round(
            BASELINE["fig06_default_seconds"] / fig06_seconds, 2),
        "results": results,
    }
    pathlib.Path(out).write_text(json.dumps(payload, indent=2) + "\n",
                                 encoding="utf-8")
    failures = [r["experiment"] for r in results if not r["ok"]]
    ok_count = len(results) - len(failures)
    print(f"wrote {out}: {ok_count}/{len(results)} ok, "
          f"fig06 default {fig06_seconds:.3f}s "
          f"({payload['fig06_speedup']}x vs baseline)", file=sys.stderr)

    if profile:
        timed = [r for r in results if r["ok"]]
        if timed:
            slowest = max(timed, key=lambda r: r["seconds"])
            prof_out = str(pathlib.Path(out).with_suffix(".prof"))
            print(f"profiling {slowest['experiment']} -> {prof_out}",
                  file=sys.stderr)
            print(_profile_experiment(slowest["experiment"], scale,
                                      prof_out, seed=seed))
    if failures:
        print(f"failed experiments: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0
