"""The platform's overload-control configuration.

One :class:`OverloadConfig` switches on the whole overload plane of a
:class:`repro.core.platform.NetAggPlatform`:

- ``queue``: the per-box :class:`repro.aggbox.overload.OverloadPolicy`
  (bounded pending queues + health state machine).  A full queue sheds
  by partial flush, whose deltas the platform forwards upstream under
  fresh source tags: a box that accepted a request's announcement
  never refuses its partials (that would strand the parent's expected
  count).  Refusal happens at *plan time* instead: pressured and
  shedding boxes are NACKed out of new trees (see
  ``avoid_pressured``).
- ``breaker``: per-target circuit breakers wrapped around the retry
  policy at connect time.
- ``admission``: per-tenant token-bucket admission at the master
  shim; non-admitted requests terminate with a typed
  :class:`repro.core.admission.AdmissionNack`.
- ``avoid_pressured``: re-plan new trees away from boxes whose health
  feed reports ``pressured``/``shedding`` (or that sit inside a
  scheduled ``BOX_SHED`` window), pushing senders down the degradation
  ladder instead of into a saturated box.
- ``heartbeat_staleness``: heartbeats older than this many virtual
  seconds are reported as ``suspect`` instead of last-known-healthy,
  so the optimizer never trusts a silent box (None disables the
  check -- heartbeats are then trusted forever).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.aggbox.overload import OverloadPolicy
from repro.core.admission import AdmissionPolicy
from repro.core.breaker import BreakerPolicy


@dataclass(frozen=True)
class OverloadConfig:
    """Overload-control plane configuration for one platform."""

    queue: Optional[OverloadPolicy] = None
    breaker: Optional[BreakerPolicy] = None
    admission: Optional[AdmissionPolicy] = None
    #: Per-tenant admission overrides (tenant id -> policy); tenants not
    #: listed fall back to ``admission``.  Ignored when ``admission`` is
    #: None.  Used by the serving layer for per-tenant SLO budgets.
    admission_per_tenant: Optional[Mapping[str, AdmissionPolicy]] = None
    avoid_pressured: bool = True
    heartbeat_staleness: Optional[float] = None

    def __post_init__(self) -> None:
        if self.heartbeat_staleness is not None \
                and self.heartbeat_staleness <= 0:
            raise ValueError(
                "heartbeat_staleness must be positive (or None)"
            )
