"""Measure one workload in this, fresh, interpreter.

Started by ``run.py`` (never imported by it), so imports, caches and
peak RSS belong to one workload alone.  Prints one JSON object on its
last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF.parent / "src"))

import calibrate  # noqa: E402  (after the path set-up, like the workloads)
from calibrate import PairedTimer, Sample  # noqa: E402
from trace import NULL, Recorder, write_trace  # noqa: E402
from workload import TraceRun, peak_rss_kb  # noqa: E402

#: workload name -> the module that builds it (imported on demand, so
#: ``setup_s`` pays for one engine's imports, not all three).
WORKLOADS = {
    "sim_fct": "sim", "sim_paper": "sim", "emu_solr": "emu",
    "serve_query": "serve", "serve_bulk": "serve",
}


def measure(workload, seconds: float, rec) -> Tuple[List[Sample], float]:
    """Cycle over the workload's inputs for ``seconds``, and at least
    ``min_samples`` units; -> (samples, peak RSS in MB when exactly
    ``min_samples`` were done).  With a recording ``rec``, every unit
    runs twice in turn, untraced then traced."""
    timer = PairedTimer()
    arms = (NULL, rec) if rec.enabled else (NULL,)
    floor = workload.min_samples
    deadline = time.perf_counter() + seconds
    rss_at_floor = 0.0
    step = 0
    while step < floor or time.perf_counter() < deadline:
        unit, arm = (step // len(arms)) % workload.units, arms[step % len(arms)]
        if arm.enabled:
            rec.group = step
        sample = timer.run(unit, lambda: workload.run_unit(unit, arm),
                           lambda result: workload.check(unit, result))
        if arm.enabled:
            sample.group = step
        step += 1
        if step == floor:
            rss_at_floor = peak_rss_kb() / 1024.0
    return timer.samples, rss_at_floor


def end_to_end(samples: List[Sample], peak_rss_mb: float) -> Dict[str, float]:
    return {
        "throughput_ops_s": calibrate.throughput_ops_s(samples),
        "cpu_ms_per_op": calibrate.cpu_ms_per_op(samples),
        "peak_rss_mb": peak_rss_mb,
        "latency_p50_ms": calibrate.latency_p50_ms(samples),
        "latency_p90_ms": calibrate.latency_p90_ms(samples),
    }


def span_ms_per_pass(traced: List[Sample], rec: Recorder,
                     names: Dict[str, str]) -> Dict[str, float]:
    """metric -> normalised self ms of its span over one pass of the
    inputs (per input, the lower quartile of its repeats)."""
    by_group = rec.self_time_by_group()
    out = {metric: 0.0 for metric in names.values()}
    for group in calibrate.by_unit(traced).values():
        for span, metric in names.items():
            out[metric] += 1e3 * calibrate.lower_quartile([
                by_group[s.group].get(span, 0.0) * s.scale for s in group])
    return out


def per_layer(workload, name: str, samples: List[Sample],
              rec: Recorder) -> Dict[str, float]:
    untraced = [s for s in samples if s.group < 0]
    traced = [s for s in samples if s.group >= 0]
    metrics = span_ms_per_pass(traced, rec, workload.span_metrics)
    rec.group = -1
    metrics.update(workload.probes(
        TraceRun(rec, PairedTimer(), metrics, untraced)))
    slowdowns = [s.cal.slowdown for s in samples]
    metrics.update({
        "bench.cal_slowdown_p50": calibrate.quantile(slowdowns, 0.5),
        "bench.cal_slowdown_max": max(slowdowns),
        "bench.raw_throughput_ops_s":
            calibrate.raw_throughput_ops_s(untraced),
        "bench.trace_overhead_frac":
            calibrate.throughput_ops_s(untraced)
            / calibrate.throughput_ops_s(traced) - 1.0,
        "bench.ops_attempted": sum(s.ops for s in samples),
        "bench.ops_failed": sum(s.failed for s in samples),
    })
    from repro.obs.export import validate_trace_events

    events = write_trace(rec.spans, PERF / "out" / f"trace-{name}.json", name)
    metrics["bench.trace_problems"] = len(validate_trace_events(events))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's CLOCK_MONOTONIC at spawn")
    parser.add_argument("--spawn-cal", type=float, required=True,
                        help="parent's kernel wall seconds at spawn")
    args = parser.parse_args()

    module = importlib.import_module(WORKLOADS[args.workload])
    workload = getattr(module, args.workload)()
    workload.setup(args.seed)
    setup_raw = calibrate.monotonic() - args.spawned_at
    ready_cal = calibrate.measure()
    out: Dict[str, object] = {
        "setup_s": setup_raw * calibrate.CAL_REF_S
        / ((args.spawn_cal + ready_cal.wall) / 2),
    }
    try:
        if not args.setup_only:
            rec = Recorder() if args.trace else NULL
            samples, peak_rss_mb = measure(workload, args.seconds, rec)
            out["attempted"] = sum(s.ops for s in samples)
            out["failed"] = sum(s.failed for s in samples)
            out["metrics"] = (
                per_layer(workload, args.workload, samples, rec)
                if args.trace else end_to_end(samples, peak_rss_mb))
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
