"""The agg-box runtime (§3.2 of the paper).

An agg box decomposes aggregation into fine-grained *aggregation tasks*
organised as a pipelined *local aggregation tree*, scheduled cooperatively
over a thread pool with weighted-fair sharing between applications.

- :mod:`repro.aggbox.functions` -- aggregation functions (top-k merge,
  combiner-style dictionary merge, sample, categorise) with both real
  merge semantics and calibrated CPU/output-size cost models;
- :mod:`repro.aggbox.localtree` -- functional tree aggregation plus the
  discrete-event performance model behind Fig. 15 / Fig. 21;
- :mod:`repro.aggbox.scheduler` -- the cooperative task scheduler with
  fixed and adaptive weighted fair queuing (Figs. 25/26);
- :mod:`repro.aggbox.box` -- the box runtime: application registration,
  per-request partial-result collection, streaming deserialisation;
- :mod:`repro.aggbox.overload` -- the states of the platform's box
  health feed (healthy, failed, gray) and its heartbeat record.
"""

from repro.aggbox.box import AggBoxRuntime, AppBinding, RequestState
from repro.aggbox.overload import BoxHeartbeat
from repro.aggbox.isolation import (
    AggregationFault,
    AppQuarantined,
    GuardedFunction,
    IsolationMonitor,
    IsolationPolicy,
)
from repro.aggbox.functions import (
    AggregationFunction,
    CategoriseFunction,
    CombinerFunction,
    MaxFunction,
    SampleFunction,
    SumFunction,
    TopKFunction,
)
from repro.aggbox.localtree import LocalTreeModel, TreeModelParams, tree_aggregate
from repro.aggbox.scheduler import (
    AppShare,
    SchedulerParams,
    TaskScheduler,
    WfqExecutor,
    WorkloadSpec,
)
from repro.aggbox.timed import RequestTiming, TimedAggBox

__all__ = [
    "AggregationFunction",
    "TopKFunction",
    "CombinerFunction",
    "SampleFunction",
    "CategoriseFunction",
    "SumFunction",
    "MaxFunction",
    "tree_aggregate",
    "LocalTreeModel",
    "TreeModelParams",
    "TaskScheduler",
    "SchedulerParams",
    "WorkloadSpec",
    "AppShare",
    "WfqExecutor",
    "TimedAggBox",
    "RequestTiming",
    "AggBoxRuntime",
    "AppBinding",
    "RequestState",
    "BoxHeartbeat",
    "GuardedFunction",
    "IsolationMonitor",
    "IsolationPolicy",
    "AggregationFault",
    "AppQuarantined",
]
