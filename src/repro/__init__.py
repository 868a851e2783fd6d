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

from __future__ import annotations

import importlib
import sys
import typing

__version__ = "1.0.0"


def _lazy_exports(package: str, modules: dict[str, list[str]]
                  ) -> tuple[list[str], typing.Callable[[str], object],
                             typing.Callable[[], list[str]]]:
    """Lazy re-exports for a package ``__init__`` (PEP 562).

    ``modules`` maps a defining module to the names ``package``
    re-exports from it, each name written once; -> ``(__all__,
    __getattr__, __dir__)`` for the package::

        from repro import _lazy_exports

        __all__, __getattr__, __dir__ = _lazy_exports(__name__, {
            "repro.netsim.engine": ["EventQueue"],
        })

    A name's module is imported on the name's first access, so
    importing one module of a package loads what that module imports,
    not every layer the package re-exports.  The helper lives here
    because every ``repro`` import loads this module anyway.
    """
    where = {name: module for module, names in modules.items()
             for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name]), name)
        namespace[name] = value  # later reads skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__


#: The stable public API, grouped: units, faults, platform, the
#: experiment registry + scales, and the serving layer.
__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.units": ["Gbps", "KB", "MB", "GB"],
    # fault schedules and the shim retry policy
    "repro.faults": ["FaultSchedule", "FaultEvent", "RetryPolicy"],
    # the NetAgg platform
    "repro.core.platform": ["NetAggPlatform"],
    # experiment registry and scale presets
    "repro.experiments": [
        "ExperimentResult", "all_experiments", "load", "resolve",
        "simulate", "SimScale", "QUICK", "BENCH", "DEFAULT", "PAPER",
    ],
    # the serving layer
    "repro.serve": [
        "AggregationService", "ServeConfig", "TenantPolicy",
        "run_loadgen", "serve_forever",
    ],
    "repro.workload.openloop": ["OpenLoopParams"],
})
__all__.insert(0, "__version__")
