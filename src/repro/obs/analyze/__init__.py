"""``repro.obs.analyze`` -- trace analysis and diagnosis.

Turns a trace (a live :class:`repro.obs.Tracer` or an exported
Perfetto JSON file) into a *diagnosis*: per-request critical paths
attributed across ``edge-link`` / ``core-link`` / ``box-compute`` /
``shim-retry``, and per-run ranked link-bottleneck tables built from
the simulator's utilization counter tracks.  This module is the one
sanctioned consumer of raw trace payloads -- ``tools/check_obs.py``
flags ad-hoc trace parsing anywhere else.

Entry points:

- :func:`diagnose` -- :class:`TraceData` in, JSON-ready diagnosis
  dict out (the shape ``ExperimentResult.diagnosis`` carries);
- :func:`diagnose_tracer` / :func:`diagnose_file` -- convenience
  loaders for the two trace sources;
- ``python -m repro analyze`` -- the CLI around them.

Diagnosis schema (version 1)::

    {"schema": 1,
     "runs": [{"strategy": ..., "end_time": ...,
               "timeline": {ranked links, tier_busy, dominant_tier},
               "critical_path": {seconds, fractions, dominant, top}}],
     "platform": {seconds, fractions, dominant, top},
     "optimizer": {ticks, audits, actions, drains, undrains,
                   targets, log},
     "serve": {requests, tenants: {waits, service, p99, statuses}}}

The ``optimizer`` section (present only when a control loop ran under
the trace) attributes every self-healing action -- see
:func:`repro.obs.analyze.optimizer.optimizer_report`.  The ``serve``
section (present only when the serving layer handled requests under
the trace) attributes per-tenant latency -- see
:func:`repro.obs.analyze.serve.serve_report`.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Union

from repro import _lazy_exports
from repro.obs.analyze.critpath import (
    aggregate_paths,
    link_credit,
    platform_paths,
    simulator_paths,
)
from repro.obs.analyze.optimizer import optimizer_report
from repro.obs.analyze.serve import serve_report
from repro.obs.analyze.timeline import run_timeline, series_for_run
from repro.obs.analyze.trace_data import TraceData
from repro.obs.tracer import Tracer

#: Diagnosis dict schema version.
DIAGNOSIS_SCHEMA = 1

#: Links kept in each run's embedded bottleneck table.
_TABLE_TOP = 10


def diagnose(trace: TraceData) -> Dict[str, object]:
    """Full diagnosis of a loaded trace (see module docstring)."""
    runs = []
    for run in trace.runs():
        series = series_for_run(run)
        paths = simulator_paths(run, series)
        timeline = run_timeline(run, top=_TABLE_TOP,
                                credit=link_credit(paths))
        runs.append({
            "strategy": run.strategy,
            "end_time": run.end_time,
            "timeline": {
                "dominant_tier": timeline.dominant_tier,
                "tier_busy": timeline.tier_busy,
                "tier_credit": timeline.tier_credit,
                "links": [s.to_dict() for s in timeline.links],
            },
            "critical_path": aggregate_paths(paths),
        })
    diagnosis: Dict[str, object] = {"schema": DIAGNOSIS_SCHEMA, "runs": runs}
    platform = aggregate_paths(platform_paths(trace))
    if platform:
        diagnosis["platform"] = platform
    optimizer = optimizer_report(trace)
    if optimizer:
        diagnosis["optimizer"] = optimizer
    serve = serve_report(trace)
    if serve:
        diagnosis["serve"] = serve
    return diagnosis


def diagnose_tracer(tracer: Tracer) -> Dict[str, object]:
    return diagnose(TraceData.from_tracer(tracer))


def diagnose_file(path: Union[str, pathlib.Path]) -> Dict[str, object]:
    return diagnose(TraceData.from_file(path))


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.analyze.critpath": [
        "CAT_BOX", "CAT_CORE", "CAT_EDGE", "CAT_RETRY", "CATEGORIES",
        "RequestPath", "aggregate_paths", "link_credit", "platform_paths",
        "simulator_paths",
    ],
    "repro.obs.analyze.optimizer": ["optimizer_report"],
    "repro.obs.analyze.serve": ["serve_report"],
    "repro.obs.analyze.timeline": [
        "BUSY_UTILIZATION", "TIERS", "LinkSeries", "LinkStats",
        "TimelineReport", "link_tier", "run_timeline", "series_for_run",
    ],
    "repro.obs.analyze.trace_data": [
        "InstantRec", "RunView", "SampleRec", "SpanRec", "TraceData",
    ],
})
__all__ += ["DIAGNOSIS_SCHEMA", "diagnose", "diagnose_file",
            "diagnose_tracer"]
