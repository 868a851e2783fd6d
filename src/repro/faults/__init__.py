"""Deterministic fault injection for the flow simulator and the platform.

NetAgg's robustness story (§3.1, "Handling failures") is that the
platform survives agg-box failures mid-request with duplicate
suppression and degrades gracefully when boxes are unavailable.  This
package turns that story into a reusable chaos harness:

- :mod:`repro.faults.schedule` -- a seedable :class:`FaultSchedule` of
  timestamped fault events (box crash/recover, capacity degradation,
  link flaps and worker churn; ``box-overload``/``box-shed`` saturation
  windows for the flow simulator; gray failures and partitions for the
  platform) with a table of which kind reaches which layer;
- :mod:`repro.faults.retry` -- the shim-side :class:`RetryPolicy`:
  connect timeout, bounded exponential backoff with deterministic
  jitter;
- :mod:`repro.faults.domains` -- rack and pod partition scopes and
  :func:`in_scope`, which ``net-partition`` faults are read against;
- :mod:`repro.faults.inject` -- one injector per faulted layer:
  :class:`SimFaultInjector` (flow-level simulator) and
  :class:`PlatformFaultInjector` (functional platform; with a topology
  it also answers partition-scope isolation).

One seed drives FCT under failure (``fig_failures``, ``fig_overload``,
``fig_selfheal``) and exactness of aggregates under failure
(``fig_failures``, ``fig_partition``).
"""

from repro.faults.domains import (
    in_scope,
    pod_domain_name,
    rack_domain_name,
)
from repro.faults.inject import (
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
    "RetryPolicy",
    "SimFaultInjector",
    "PlatformFaultInjector",
    "in_scope",
    "rack_domain_name",
    "pod_domain_name",
    "BOX_CRASH",
    "BOX_RECOVER",
    "BOX_DEGRADE",
    "LINK_DOWN",
    "LINK_UP",
    "WORKER_CHURN",
    "BOX_OVERLOAD",
    "BOX_SHED",
    "BOX_GRAY",
    "NET_PARTITION",
    "FAULT_KINDS",
]
