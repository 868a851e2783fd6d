"""The agg-box runtime (§3.2 of the paper).

An agg box decomposes aggregation into fine-grained *aggregation tasks*
organised as a pipelined *local aggregation tree*, scheduled cooperatively
over a thread pool with weighted-fair sharing between applications.

- :mod:`repro.aggbox.functions` -- aggregation functions (top-k merge,
  combiner-style dictionary merge, sum) with both real
  merge semantics and a calibrated CPU cost model;
- :mod:`repro.aggbox.localtree` -- functional tree aggregation plus the
  discrete-event performance model behind Fig. 15 / Fig. 21;
- :mod:`repro.aggbox.scheduler` -- the cooperative task scheduler with
  fixed and adaptive weighted fair queuing (Figs. 25/26);
- :mod:`repro.aggbox.box` -- the box runtime: application registration,
  per-request partial-result collection, streaming deserialisation.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.aggbox.box": ["AggBoxRuntime", "AppBinding", "RequestState"],
    "repro.aggbox.functions": [
        "AggregationFunction", "CombinerFunction", "SumFunction",
        "TopKFunction",
    ],
    "repro.aggbox.localtree": [
        "LocalTreeModel", "TreeModelParams", "tree_aggregate",
    ],
    "repro.aggbox.scheduler": [
        "AppShare", "SchedulerParams", "TaskScheduler", "WfqExecutor",
        "WorkloadSpec",
    ],
    "repro.aggbox.timed": ["RequestTiming", "TimedAggBox"],
})
