"""Per-tenant SLO accounting for the serving layer.

Every response the service produces is folded into one
:class:`TenantStats` ledger; :class:`ServeReport` turns the ledgers
into the per-tenant goodput / latency / SLO-attainment table the
``loadgen`` CLI and the ``fig_serve`` experiment print.

The accounting is self-checking: :meth:`ServeReport.accounting_errors`
re-derives every total from its parts and returns the discrepancies
(an empty list is asserted by the CI smoke load-test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import Histogram
from repro.units import percentile

#: Response statuses the service emits (HTTP-style).
STATUS_OK = 200
STATUS_PARTIAL = 206        #: partial aggregate (workers behind a partition)
STATUS_BAD_REQUEST = 400
STATUS_NOT_FOUND = 404
STATUS_PAYLOAD_TOO_LARGE = 413
STATUS_REJECTED = 429       #: admission NACK (rate-limit / queue-depth)
STATUS_INTERNAL = 500
STATUS_UNAVAILABLE = 503    #: breaker-open fail-fast or queue shedding


@dataclass
class TenantStats:
    """One tenant's serving ledger."""

    tenant: str
    slo: float
    requests: int = 0
    ok: int = 0
    ok_within_slo: int = 0
    partial: int = 0                # 206 (degraded but answered)
    partial_within_slo: int = 0
    rejected_admission: int = 0     # 429
    rejected_unavailable: int = 0   # 503
    errors: int = 0                 # 500
    latencies: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)
    #: Bounded log-bucket digest of the same latencies: live endpoints
    #: (``/v1/stats``) read percentile *estimates* from here in O(bins)
    #: instead of sorting the full ledger on every scrape.
    digest: Histogram = field(
        default_factory=lambda: Histogram("tenant.latency"))

    def record(self, status: int, latency: float = 0.0,
               wait: float = 0.0) -> None:
        self.requests += 1
        if status in (STATUS_OK, STATUS_PARTIAL):
            # A 206 is an *answered* request (the tenant accepted the
            # completeness), so it shares the latency ledger; the
            # partial counters keep the degradation visible.
            if status == STATUS_OK:
                self.ok += 1
                if latency <= self.slo:
                    self.ok_within_slo += 1
            else:
                self.partial += 1
                if latency <= self.slo:
                    self.partial_within_slo += 1
            self.latencies.append(latency)
            self.waits.append(wait)
            self.digest.observe(latency)
        elif status == STATUS_REJECTED:
            self.rejected_admission += 1
        elif status == STATUS_UNAVAILABLE:
            self.rejected_unavailable += 1
        else:
            self.errors += 1

    def p50(self) -> float:
        return percentile(self.latencies, 50.0) if self.latencies else 0.0

    def p99(self) -> float:
        return percentile(self.latencies, 99.0) if self.latencies else 0.0

    def p50_estimate(self) -> float:
        """Digest p50: O(bins) regardless of request count."""
        return self.digest.percentile(50.0)

    def p99_estimate(self) -> float:
        """Digest p99: O(bins) regardless of request count."""
        return self.digest.percentile(99.0)

    def attainment(self) -> float:
        """Fraction of *offered* requests answered within the SLO
        (exact and accepted-partial responses both count)."""
        answered = self.ok_within_slo + self.partial_within_slo
        return answered / self.requests if self.requests else 0.0

    def goodput(self, duration: float) -> float:
        """Requests per second answered within the SLO."""
        answered = self.ok_within_slo + self.partial_within_slo
        return answered / duration if duration > 0 else 0.0


class ServeReport:
    """All tenants' ledgers plus the run-level accounting checks."""

    def __init__(self, slo: float) -> None:
        self.slo = slo
        self.tenants: Dict[str, TenantStats] = {}
        self.duration: float = 0.0

    def stats(self, tenant: str, slo: Optional[float] = None) -> TenantStats:
        ledger = self.tenants.get(tenant)
        if ledger is None:
            ledger = TenantStats(tenant=tenant,
                                 slo=self.slo if slo is None else slo)
            self.tenants[tenant] = ledger
        return ledger

    def record(self, tenant: str, status: int, latency: float = 0.0,
               wait: float = 0.0, slo: Optional[float] = None) -> None:
        self.stats(tenant, slo=slo).record(status, latency, wait)

    # -- aggregates --------------------------------------------------------

    def total_requests(self) -> int:
        return sum(t.requests for t in self.tenants.values())

    def total_ok_within_slo(self) -> int:
        return sum(t.ok_within_slo + t.partial_within_slo
                   for t in self.tenants.values())

    def aggregate_goodput(self) -> float:
        return (self.total_ok_within_slo() / self.duration
                if self.duration > 0 else 0.0)

    def accounting_errors(self) -> List[str]:
        """Discrepancies between totals and their parts (want: empty)."""
        problems: List[str] = []
        for tenant in sorted(self.tenants):
            t = self.tenants[tenant]
            parts = (t.ok + t.partial + t.rejected_admission
                     + t.rejected_unavailable + t.errors)
            if parts != t.requests:
                problems.append(
                    f"{tenant}: {t.requests} requests != {parts} "
                    "accounted outcomes")
            if len(t.latencies) != t.ok + t.partial:
                problems.append(
                    f"{tenant}: {len(t.latencies)} latencies for "
                    f"{t.ok + t.partial} answered responses")
            if t.ok_within_slo > t.ok:
                problems.append(
                    f"{tenant}: {t.ok_within_slo} within-SLO > {t.ok} ok")
            if t.partial_within_slo > t.partial:
                problems.append(
                    f"{tenant}: {t.partial_within_slo} within-SLO > "
                    f"{t.partial} partial")
            if any(l < 0 for l in t.latencies) \
                    or any(w < 0 for w in t.waits):
                problems.append(f"{tenant}: negative latency or wait")
        return problems

    # -- rendering ---------------------------------------------------------

    def to_result(self, description: str = "",
                  notes: str = "") -> ExperimentResult:
        """The per-tenant table as an :class:`ExperimentResult`.

        Tenants sort by request volume (hottest first); an ``ALL`` row
        aggregates the deployment.  Round-trips through the result's
        JSON helpers, so ``--out foo.json`` works like every other
        subcommand.
        """
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            experiment="serve",
            description=description or "per-tenant serving report",
            columns=("tenant", "requests", "ok", "r206", "r429", "r503",
                     "err", "goodput_rps", "p50", "p99",
                     "slo_attainment"),
            notes=notes or (
                f"slo={self.slo:g}s over {self.duration:g}s; goodput = "
                "within-SLO responses / duration; attainment = "
                "within-SLO / offered"),
        )
        ordered = sorted(self.tenants.values(),
                         key=lambda t: (-t.requests, t.tenant))
        for t in ordered:
            result.add_row(
                tenant=t.tenant, requests=t.requests, ok=t.ok,
                r206=t.partial, r429=t.rejected_admission,
                r503=t.rejected_unavailable,
                err=t.errors, goodput_rps=t.goodput(self.duration),
                p50=t.p50(), p99=t.p99(),
                slo_attainment=t.attainment(),
            )
        all_latencies = [l for t in ordered for l in t.latencies]
        result.add_row(
            tenant="ALL",
            requests=self.total_requests(),
            ok=sum(t.ok for t in ordered),
            r206=sum(t.partial for t in ordered),
            r429=sum(t.rejected_admission for t in ordered),
            r503=sum(t.rejected_unavailable for t in ordered),
            err=sum(t.errors for t in ordered),
            goodput_rps=self.aggregate_goodput(),
            p50=percentile(all_latencies, 50.0) if all_latencies else 0.0,
            p99=percentile(all_latencies, 99.0) if all_latencies else 0.0,
            slo_attainment=(self.total_ok_within_slo()
                            / max(self.total_requests(), 1)),
        )
        return result
