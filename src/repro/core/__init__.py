"""The NetAgg platform core (§3 of the paper).

- :mod:`repro.core.tree` -- construction of distributed aggregation
  trees over the agg boxes of a topology (switch lanes, box assignment,
  multiple disjoint trees per application);
- :mod:`repro.core.shim` -- the edge-server shim layers: the key-hash
  split across trees, request metadata, partial-result collection and
  empty-result emulation at the master;
- :mod:`repro.core.platform` -- the platform object: box runtimes wired
  to a topology, application registration, functional end-to-end request
  execution;
- :mod:`repro.core.failure` -- failure detection and recovery (child
  rewiring + duplicate suppression);
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

from repro.core.admission import (
    AdmissionController,
    AdmissionNack,
    TokenBucket,
)
from repro.core.breaker import (
    BreakerBoard,
    BreakerTransition,
    CircuitBreaker,
)
from repro.core.failure import FailureDetector, rewire_failed_box, rewire_out
from repro.core.multicast import (
    MulticastTree,
    build_multicast_tree,
    multicast_link_copies,
    plan_multicast_flows,
    plan_unicast_flows,
)
from repro.core.partition import (
    Completeness,
    GrayDetector,
    SubtreeUnreachable,
)
from repro.core.platform import NetAggPlatform
from repro.core.recovery import (
    InFlightRequest,
    RecoveryLog,
)
from repro.core.shim import MasterShim
from repro.core.sockets import (
    NetAggSocketFactory,
    SocketFactory,
)
from repro.core.straggler import StragglerMonitor, StragglerPolicy
from repro.core.tree import AggregationTree, BoxVertex, TreeBuilder

__all__ = [
    "AggregationTree",
    "BoxVertex",
    "TreeBuilder",
    "MasterShim",
    "NetAggPlatform",
    "FailureDetector",
    "rewire_failed_box",
    "rewire_out",
    "StragglerMonitor",
    "StragglerPolicy",
    "InFlightRequest",
    "RecoveryLog",
    "CircuitBreaker",
    "BreakerBoard",
    "BreakerTransition",
    "AdmissionController",
    "AdmissionNack",
    "TokenBucket",
    "Completeness",
    "GrayDetector",
    "SubtreeUnreachable",
    "SocketFactory",
    "NetAggSocketFactory",
    "MulticastTree",
    "build_multicast_tree",
    "plan_multicast_flows",
    "plan_unicast_flows",
    "multicast_link_copies",
]
