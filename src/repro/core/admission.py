"""Admission control at the master shim.

Instead of letting an overloaded deployment time senders out, the
master shim refuses excess requests up front with a typed NACK: the
caller degrades immediately (retry later, shed the query, fall back to
edge aggregation) rather than burning retry budget into saturated
boxes.  One gate runs per request: a per-tenant *token bucket*,
``rate`` tokens/virtual-second with a ``burst`` ceiling; an empty
bucket NACKs with reason ``rate-limit``.

There is no queue-depth gate: a platform's boxes hold nothing between
requests (a request's state ends with the call that runs it), so the
deepest box queue is 0 whenever a request is admitted.

Refills run on the platform's deterministic virtual clock, so a fixed
workload produces bit-identical admission decisions across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Mapping, Optional

RATE_LIMIT = "rate-limit"

NACK_REASONS = (RATE_LIMIT,)

#: Refusals :attr:`AdmissionController.nacks` keeps, newest last; older
#: ones survive only in the ``refused`` total.  A service refuses for as
#: long as it runs, so an unbounded log would be a leak.
NACK_WINDOW = 1024


class TokenBucket:
    """A deterministic token bucket on the virtual clock."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._updated = 0.0

    def available(self, now: float) -> float:
        """Tokens in the bucket after refilling up to ``now``."""
        if now > self._updated:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
        return self._tokens

    def try_take(self, now: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; False leaves the bucket as-is."""
        if self.available(now) < n:
            return False
        self._tokens -= n
        return True


@dataclass(frozen=True)
class AdmissionPolicy:
    """Master-shim admission configuration.

    Attributes:
        rate: sustained admitted requests per tenant per virtual second.
        burst: token-bucket ceiling (instantaneous burst allowance).
    """

    rate: float = 50.0
    burst: float = 10.0

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst <= 0:
            raise ValueError("rate and burst must be positive")


class AdmissionNack(RuntimeError):
    """A request was refused at the master shim.

    This is the *terminating* outcome for a non-admitted request: the
    sender never enters the aggregation trees, so nothing can hang.
    """

    def __init__(self, tenant: str, at: float, reason: str) -> None:
        super().__init__(
            f"admission NACK for tenant {tenant!r} at {at:g} ({reason})"
        )
        self.tenant = tenant
        self.at = at
        self.reason = reason


@dataclass(frozen=True)
class NackRecord:
    """One recorded admission refusal (for logs and tests)."""

    tenant: str
    at: float
    reason: str


class AdmissionController:
    """Per-tenant token buckets.

    ``per_tenant`` overrides the default policy for named tenants, so a
    multi-tenant deployment (the serving layer) can give each tenant its
    own sustained rate and burst.  The override is read once, when the
    tenant's bucket is created.  ``admitted`` and ``refused`` count every
    decision; ``nacks`` keeps only the last :data:`NACK_WINDOW`
    refusals.
    """

    def __init__(self, policy: AdmissionPolicy,
                 per_tenant: Optional[
                     Mapping[str, AdmissionPolicy]] = None) -> None:
        self.policy = policy
        self._per_tenant: Dict[str, AdmissionPolicy] = dict(per_tenant or {})
        self._buckets: Dict[str, TokenBucket] = {}
        self.admitted = 0
        self.refused = 0
        self.nacks: Deque[NackRecord] = deque(maxlen=NACK_WINDOW)

    def tenant_policy(self, tenant: str) -> AdmissionPolicy:
        return self._per_tenant.get(tenant, self.policy)

    def set_tenant_policy(self, tenant: str,
                          policy: AdmissionPolicy) -> None:
        """Install a tenant override (before the tenant's first request)."""
        if tenant in self._buckets:
            raise ValueError(
                f"tenant {tenant!r} already has a live bucket")
        self._per_tenant[tenant] = policy

    def bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            policy = self.tenant_policy(tenant)
            bucket = TokenBucket(policy.rate, policy.burst)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, now: float) -> None:
        """Admit one request or raise :class:`AdmissionNack`."""
        if not self.bucket(tenant).try_take(now):
            self.refused += 1
            self.nacks.append(NackRecord(tenant=tenant, at=now,
                                         reason=RATE_LIMIT))
            raise AdmissionNack(tenant, now, RATE_LIMIT)
        self.admitted += 1
