"""repro -- a reproduction of NetAgg (CoNEXT 2014).

NetAgg is a software middlebox platform that performs application-specific
*on-path aggregation* of partition/aggregation traffic in data centres.
This package rebuilds the whole system in Python:

- :mod:`repro.netsim` -- a flow-level discrete-event network simulator with
  exact max-min fair bandwidth sharing (the paper's OMNeT++ substitute);
- :mod:`repro.topology` -- three-tier multi-rooted and fat-tree DC
  topologies with agg-box attachment points;
- :mod:`repro.aggregation` -- aggregation strategies (rack-level, d-ary
  edge trees, NetAgg on-path, partial deployments and scale-out);
- :mod:`repro.core` -- the NetAgg platform itself: aggregation trees over
  agg boxes, shim layers, failure and straggler handling;
- :mod:`repro.aggbox` -- the agg-box runtime: aggregation tasks, pipelined
  local aggregation trees, cooperative scheduling with adaptive weighted
  fair queuing;
- :mod:`repro.wire` -- the binary serialisation and framing layer;
- :mod:`repro.apps` -- the two case-study applications, a distributed
  search engine (mini-Solr) and a map/reduce framework (mini-Hadoop);
- :mod:`repro.cluster` -- a deterministic emulator of the paper's
  34-server testbed;
- :mod:`repro.workload` -- synthetic DC workload generation;
- :mod:`repro.cost` -- the deployment cost model of the feasibility study;
- :mod:`repro.faults` -- deterministic fault schedules and the per-layer
  injectors (simulator, platform, emulator) plus the shim retry policy;
- :mod:`repro.experiments` -- one module per paper figure/table;
- :mod:`repro.serve` -- the live multi-tenant serving layer
  (``python -m repro serve`` / ``loadgen``).

The *stable public surface* is ``repro.__all__`` -- everything the CLI,
benchmarks and downstream scripts are meant to reach from the top
level.  Anything else (per-layer fault injectors, simulator internals,
wire records, ...) is importable from its own submodule but is not part
of the compatibility contract; ``tests/test_public_api.py`` pins the
surface and fails when an internal name leaks to the top level.
"""

__version__ = "1.0.0"

from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.units import GB, KB, MB, Gbps

#: The stable public API, grouped: units, faults, platform, the
#: experiment registry + scales, and the serving layer.  Heavy names
#: resolve lazily through ``__getattr__`` (see ``_LAZY_EXPORTS``).
__all__ = [
    "__version__",
    # units
    "Gbps", "KB", "MB", "GB",
    # fault schedules and the shim retry policy
    "FaultSchedule", "FaultEvent", "RetryPolicy",
    # the NetAgg platform
    "NetAggPlatform",
    # experiment registry and scale presets
    "ExperimentResult", "all_experiments", "load", "resolve",
    "simulate", "SimScale", "QUICK", "BENCH", "DEFAULT", "PAPER",
    # the serving layer
    "AggregationService", "ServeConfig", "TenantPolicy",
    "OpenLoopParams", "run_loadgen", "serve_forever",
]

#: Lazily re-exported names -> defining module.  Importing these
#: eagerly would pull the whole simulator / platform / asyncio serving
#: stack (whose strategy modules import this package) at import time.
_LAZY_EXPORTS = {
    "NetAggPlatform": "repro.core.platform",
    "ExperimentResult": "repro.experiments",
    "all_experiments": "repro.experiments",
    "load": "repro.experiments",
    "resolve": "repro.experiments",
    "simulate": "repro.experiments",
    "SimScale": "repro.experiments",
    "QUICK": "repro.experiments",
    "BENCH": "repro.experiments",
    "DEFAULT": "repro.experiments",
    "PAPER": "repro.experiments",
    "AggregationService": "repro.serve",
    "ServeConfig": "repro.serve",
    "TenantPolicy": "repro.serve",
    "run_loadgen": "repro.serve",
    "serve_forever": "repro.serve",
    "OpenLoopParams": "repro.workload.openloop",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(_LAZY_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value  # cache: __getattr__ runs once per name
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
