"""The NetAgg platform core (§3 of the paper).

- :mod:`repro.core.tree` -- construction of distributed aggregation
  trees over the agg boxes of a topology (switch lanes, box assignment,
  multiple disjoint trees per application), failed boxes rewired out
  of them, and the links each tree edge crosses;
- :mod:`repro.core.shim` -- the edge-server shim layers: the key-hash
  split across trees, request metadata, partial-result collection and
  empty-result emulation at the master;
- :mod:`repro.core.platform` -- the platform object: box runtimes wired
  to a topology, application registration, functional end-to-end request
  execution;
- :mod:`repro.core.failure` -- heartbeat failure detection;
- :mod:`repro.core.straggler` -- straggler mitigation (per-request
  redirect, permanent failover for repeat offenders);
- :mod:`repro.core.breaker` -- per-target circuit breakers on the shim
  send path (closed/open/half-open on the virtual clock);
- :mod:`repro.core.admission` -- admission control at the master shim
  (per-tenant token buckets, rate-limit NACKs);
- :mod:`repro.core.partition` -- partition tolerance: gray-failure
  detection (seeded-EWMA latency outliers), hedged deliveries, and
  partial-aggregate completeness records;
- :mod:`repro.core.optimizer` -- the self-healing control loop: one
  pure strategy (``rebalance_hot_edges``) and one ``tick`` that drains
  boxes whose effective capacity collapsed out of the caller's drained
  set and undrains them once they cool.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.admission": [
        "AdmissionController", "AdmissionNack", "TokenBucket",
    ],
    "repro.core.breaker": [
        "BreakerBoard", "BreakerTransition", "CircuitBreaker",
    ],
    "repro.core.failure": ["FailureDetector"],
    "repro.core.multicast": [
        "MulticastTree", "build_multicast_tree", "multicast_link_copies",
        "plan_multicast_flows", "plan_unicast_flows",
    ],
    "repro.core.partition": [
        "Completeness", "GrayDetector", "SubtreeUnreachable",
    ],
    "repro.core.platform": ["NetAggPlatform"],
    "repro.core.recovery": ["InFlightRequest", "RecoveryLog"],
    "repro.core.shim": ["MasterShim"],
    "repro.core.sockets": ["NetAggSocketFactory", "SocketFactory"],
    "repro.core.straggler": ["StragglerMonitor", "StragglerPolicy"],
    "repro.core.tree": [
        "AggregationTree", "BoxVertex", "TreeBuilder", "rewire_failed_box",
        "rewire_out",
    ],
})
