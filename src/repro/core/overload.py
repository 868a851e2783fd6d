"""The platform's overload-control configuration.

One :class:`OverloadConfig` switches on the overload plane of a
:class:`repro.core.platform.NetAggPlatform`:

- ``breaker``: per-target circuit breakers wrapped around the retry
  policy at connect time (see :mod:`repro.core.breaker`).
- ``admission``: per-tenant token-bucket admission at the master
  shim; non-admitted requests terminate with a typed
  :class:`repro.core.admission.AdmissionNack`.

Boxes have no queue bound: a box holds one request's fan-in and
forgets it when the request ends, so there is no box load to bound,
report or shed.  With partition tolerance on, new trees are planned
around gray boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.admission import AdmissionPolicy


@dataclass(frozen=True)
class OverloadConfig:
    """Overload-control plane configuration for one platform."""

    breaker: bool = False
    admission: Optional[AdmissionPolicy] = None
    #: Per-tenant admission overrides (tenant id -> policy); tenants not
    #: listed fall back to ``admission``.  Ignored when ``admission`` is
    #: None.  Used by the serving layer for per-tenant SLO budgets.
    admission_per_tenant: Optional[Mapping[str, AdmissionPolicy]] = None
