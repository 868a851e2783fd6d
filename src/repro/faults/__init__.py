"""Deterministic fault injection across all three execution layers.

NetAgg's robustness story (§3.1, "Handling failures") is that the
platform survives agg-box failures mid-request with duplicate
suppression and degrades gracefully when boxes are unavailable.  This
package turns that story into a reusable chaos harness:

- :mod:`repro.faults.schedule` -- a seedable :class:`FaultSchedule` of
  timestamped fault events (box crash/recover, capacity degradation,
  link down/flap, worker churn, clock-skewed heartbeats, the overload
  kinds ``box-overload``/``box-shed`` for saturation windows, gray
  failures, and correlated domain failures and partitions);
- :mod:`repro.faults.retry` -- the shim-side :class:`RetryPolicy`:
  connect timeout, bounded exponential backoff with deterministic
  jitter;
- :mod:`repro.faults.domains` -- correlated fault domains
  (:class:`FaultDomain`, :func:`topology_domains`): rack/ToR and pod
  blast radii whose ``domain-fail``/``net-partition`` markers expand
  deterministically into member crashes and border link cuts;
- :mod:`repro.faults.inject` -- one injector per execution layer:
  :class:`SimFaultInjector` (flow-level simulator),
  :class:`PlatformFaultInjector` (functional platform; with a
  topology it also answers partition-scope isolation and gray-window
  queries),
  :class:`EmulatorFaultInjector` (testbed emulator).

The same schedule can be replayed against every layer, so FCT under
failure, exactness of aggregates under failure, and emulated testbed
behaviour under failure are all driven by one seed.
"""

from repro.faults.domains import (
    FaultDomain,
    in_scope,
    pod_domain_name,
    rack_domain_name,
    topology_domains,
)
from repro.faults.inject import (
    EmulatorFaultInjector,
    PlatformFaultInjector,
    SimFaultInjector,
)
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import (
    BOX_CRASH,
    BOX_DEGRADE,
    BOX_GRAY,
    BOX_OVERLOAD,
    BOX_RECOVER,
    BOX_SHED,
    CLOCK_SKEW,
    DOMAIN_FAIL,
    DOMAIN_KINDS,
    FAULT_KINDS,
    LINK_DOWN,
    LINK_UP,
    NET_PARTITION,
    WORKER_CHURN,
    FaultEvent,
    FaultSchedule,
)

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultDomain",
    "RetryPolicy",
    "SimFaultInjector",
    "PlatformFaultInjector",
    "EmulatorFaultInjector",
    "topology_domains",
    "in_scope",
    "rack_domain_name",
    "pod_domain_name",
    "BOX_CRASH",
    "BOX_RECOVER",
    "BOX_DEGRADE",
    "LINK_DOWN",
    "LINK_UP",
    "WORKER_CHURN",
    "CLOCK_SKEW",
    "BOX_OVERLOAD",
    "BOX_SHED",
    "BOX_GRAY",
    "DOMAIN_FAIL",
    "NET_PARTITION",
    "FAULT_KINDS",
    "DOMAIN_KINDS",
]
