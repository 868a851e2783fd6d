"""Open-loop load generator driving an :class:`AggregationService`.

The generator replays a seed-deterministic arrival stream
(:mod:`repro.workload.openloop`: Poisson arrivals at the population's
aggregate rate, Zipfian tenant popularity) against a live service via
its asyncio interface, then renders the per-tenant goodput / p99 / SLO
report.  Identical ``(params, seed)`` produce an identical report --
arrivals, tenant draws, payload seeds, queueing and admission decisions
all live on seeded RNGs and the deterministic virtual clock.

``python -m repro loadgen`` is the CLI around :func:`run_loadgen`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.experiments.common import ExperimentResult
from repro.obs import METRICS
from repro.serve.service import (
    AggregationService,
    ServeConfig,
    TenantPolicy,
)
from repro.workload.openloop import (
    GRADIENT_DIMS,
    RESULTS_PER_WORKER,
    WORKERS,
    OpenLoopParams,
    iter_arrivals,
)

#: Fraction of estimated platform capacity the default per-tenant
#: admission budget hands out in aggregate (headroom for bursts).
ADMIT_FRACTION = 0.7

#: Tasks submitted to the event loop per batch (bounds memory; order
#: within and across batches is submission order, so replay is exact).
_BATCH = 512


@dataclass(frozen=True)
class LoadGenResult:
    """Everything one load-test run produced."""

    result: ExperimentResult       #: per-tenant table (+ ALL row)
    report: "object"               #: the service's ServeReport ledger
    service: AggregationService    #: the driven service (for inspection)

    @property
    def aggregate_goodput(self) -> float:
        return self.report.aggregate_goodput()


def estimate_service_time(config: ServeConfig, samples: int = 8) -> float:
    """Mean uncontended service time of one request (virtual seconds).

    Measured on a scratch deployment (identical config, no admission,
    no faults) so the estimate never perturbs the real service's clock
    or breaker state.  Used to size per-tenant admission budgets
    against actual platform capacity instead of a magic constant.
    """
    scratch = AggregationService(replace(
        config, admission=False, faults=None, max_queue_wait=None,
        telemetry=False))
    started = scratch.clock
    for i in range(samples):
        scratch.handle({"op": "query", "tenant": "probe",
                        "id": f"probe-{i}", "payload_seed": i * 7919})
    elapsed = scratch.clock - started
    return max(elapsed / samples, 1e-6)


def tenant_policies(params: OpenLoopParams, config: ServeConfig,
                    slo: float) -> Dict[str, TenantPolicy]:
    """Equal per-tenant admission budgets from estimated capacity.

    Aggregate admitted rate is capped at ``ADMIT_FRACTION`` of the
    deployment's estimated throughput, split evenly across tenants:
    Zipf-hot tenants hit their bucket hard (429s), cold tenants rarely
    notice -- the isolation property ``fig_serve`` measures.
    """
    capacity = ADMIT_FRACTION / estimate_service_time(config)
    rate = max(capacity / params.tenants, 1e-3)
    return {
        f"tenant-{rank}": TenantPolicy(rate=rate, burst=max(2.0, rate),
                                       slo=slo)
        for rank in range(1, params.tenants + 1)
    }


async def drive(service: AggregationService, params: OpenLoopParams,
                seed: int = 1) -> int:
    """Submit the whole arrival stream; returns the request count."""
    submitted = 0
    batch = []
    for arrival in iter_arrivals(params, seed):
        request = {
            "op": arrival.op,
            "tenant": arrival.tenant,
            "id": arrival.request_id,
            "payload_seed": arrival.payload_seed,
            "workers": WORKERS,
            "results_per_worker": RESULTS_PER_WORKER,
            "gradient_dims": GRADIENT_DIMS,
        }
        batch.append(service.handle_async(request, arrival=arrival.at))
        submitted += 1
        if len(batch) >= _BATCH:
            await asyncio.gather(*batch)
            batch = []
    if batch:
        await asyncio.gather(*batch)
    return submitted


def run_loadgen(params: OpenLoopParams,
                config: Optional[ServeConfig] = None,
                seed: int = 1,
                slo: float = 0.25,
                admission: bool = True) -> LoadGenResult:
    """One full load test: build service, replay arrivals, report.

    When ``config`` is None a service is built at QUICK topology with
    per-tenant admission budgets sized from estimated capacity
    (:func:`tenant_policies`); ``admission=False`` removes the gate
    for the ablation arm.
    """
    if config is None:
        config = ServeConfig(default_policy=TenantPolicy(slo=slo),
                             admission=admission)
    if config.admission and not config.tenants:
        config = replace(
            config,
            tenants=tenant_policies(params, config, slo),
            default_policy=replace(config.default_policy, slo=slo),
        )
    service = AggregationService(config)
    submitted = asyncio.run(drive(service, params, seed))
    report = service.report
    report.duration = params.duration
    METRICS.counter("serve.loadgen.submitted").inc(submitted)
    result = report.to_result(
        description=f"open-loop load test: {params.users:,} users, "
                    f"{params.offered_rate:.1f} req/s offered over "
                    f"{params.duration:g}s ({submitted} requests, "
                    f"seed {seed})",
    )
    result.experiment = "loadgen"
    return LoadGenResult(result=result, report=report, service=service)
