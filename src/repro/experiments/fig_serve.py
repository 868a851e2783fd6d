"""fig_serve -- per-tenant goodput and p99 vs offered load.

Not a paper figure: the serving-layer face of multi-tenant overload
(PR 7).  An open-loop, Zipfian-tenant arrival stream
(:mod:`repro.workload.openloop`) replays against a live
:class:`repro.serve.AggregationService` at multiples of the
deployment's estimated capacity, in two arms per load point:

- ``adm``: per-tenant admission on -- each tenant gets an equal token
  budget summing to ``ADMIT_FRACTION`` of estimated capacity, so the
  Zipf-hot tenant burns its own bucket (429s) instead of everyone's
  queue;
- ``noadm``: no admission gate -- every arrival queues, and under
  overload the shared queue blows through the SLO for *all* tenants.

Goodput counts requests answered with a correct aggregate within the
SLO; the claim mirrored from the overload plane is that per-tenant
admission keeps aggregate goodput (and the cold tenants' SLO
attainment) up at overload, at the price of 429s charged to the hot
tenant.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.serve.loadgen import estimate_service_time, run_loadgen
from repro.serve.service import ServeConfig, TenantPolicy
from repro.units import percentile
from repro.workload.openloop import OpenLoopParams

LOADS = (0.5, 1.0, 2.0, 4.0)

#: End-to-end (wait + service) latency SLO, virtual seconds.
SLO = 0.25

#: Virtual seconds of arrivals replayed per (load, arm) point.
DURATION = 3.0

#: Tenants in the Zipf population (rank 1 is the hot tenant).
TENANTS = 8


def _pooled_p99(report) -> float:
    """p99 over every successful request's end-to-end latency."""
    latencies: List[float] = []
    for stats in report.tenants.values():
        latencies.extend(stats.latencies)
    return percentile(latencies, 99.0) if latencies else 0.0


def _cold_attainment(report, tenants: int) -> float:
    """Mean SLO attainment over the cold half of the tenant population."""
    cold = [f"tenant-{rank}" for rank in range(tenants // 2 + 1, tenants + 1)]
    values = [report.tenants[t].attainment() for t in cold
              if t in report.tenants and report.tenants[t].requests]
    return sum(values) / len(values) if values else 1.0


def _arm(scale: SimScale, params: OpenLoopParams, seed: int,
         admission: bool):
    config = ServeConfig(topo=scale.topo,
                         default_policy=TenantPolicy(slo=SLO),
                         admission=admission)
    return run_loadgen(params, config=config, seed=seed, slo=SLO,
                       admission=admission)


@register("fig_serve")
def run(scale: SimScale = DEFAULT, seed: int = 1,
        loads: Sequence[float] = LOADS,
        duration: float = DURATION) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig_serve",
        description="per-tenant serving goodput and p99 vs offered load, "
                    "with (adm) and without (noadm) per-tenant admission",
        columns=("load", "adm_goodput", "noadm_goodput", "adm_p99",
                 "noadm_p99", "adm_hot_attain", "noadm_hot_attain",
                 "adm_cold_attain", "noadm_cold_attain", "adm_r429",
                 "noadm_r503"),
        notes="goodput = correct-and-within-SLO requests/s "
              f"(SLO {SLO:g}s end-to-end); load = offered rate as a "
              "multiple of estimated capacity; hot = Zipf rank-1 tenant, "
              "cold = mean attainment of the bottom half",
    )
    # One capacity estimate anchors every load point (scratch service,
    # so it never perturbs the measured arms).
    service_time = estimate_service_time(
        ServeConfig(topo=scale.topo, default_policy=TenantPolicy(slo=SLO)))
    capacity = 1.0 / service_time
    for load in sorted(loads):
        offered = load * capacity
        params = OpenLoopParams(
            users=max(1, int(round(offered / 0.001))),
            duration=duration,
            per_user_rate=0.001,
            tenants=TENANTS,
        )
        adm = _arm(scale, params, seed, admission=True)
        noadm = _arm(scale, params, seed, admission=False)
        hot = "tenant-1"
        result.add_row(
            load=load,
            adm_goodput=adm.report.aggregate_goodput(),
            noadm_goodput=noadm.report.aggregate_goodput(),
            adm_p99=_pooled_p99(adm.report),
            noadm_p99=_pooled_p99(noadm.report),
            adm_hot_attain=(adm.report.tenants[hot].attainment()
                            if hot in adm.report.tenants else 1.0),
            noadm_hot_attain=(noadm.report.tenants[hot].attainment()
                              if hot in noadm.report.tenants else 1.0),
            adm_cold_attain=_cold_attainment(adm.report, TENANTS),
            noadm_cold_attain=_cold_attainment(noadm.report, TENANTS),
            adm_r429=sum(t.rejected_admission
                         for t in adm.report.tenants.values()),
            noadm_r503=sum(t.rejected_unavailable
                           for t in noadm.report.tenants.values()),
        )
    return result
