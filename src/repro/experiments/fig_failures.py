"""fig_failures -- FCT degradation and result exactness under faults.

Not a paper figure: a robustness experiment over the fault-injection
layer (§3.1's failure handling, exercised end to end).  One seeded
:class:`repro.faults.FaultSchedule` -- box crashes (a fraction of them
permanent), link flaps and capacity degradations -- is replayed against
three strategies at increasing fault rates:

- ``netagg``: on-path aggregation; crashed boxes drop out of the rate
  solve, in-flight segment flows are re-admitted on the rewired tree;
- ``edge``: a binary edge-server tree (no boxes -- only link flaps bite);
- ``none``: no aggregation (the same link flaps, largest flows).

The ``exact`` column runs the *functional* platform under the same
schedule (clock advanced into the first crash window so the shims
actually retry and fall back) and checks the aggregate is byte-identical
to a centralised computation -- graceful degradation must never change
results, only timing.
"""

from __future__ import annotations

from typing import Optional

from repro.aggregation import (
    BinaryTreeStrategy,
    NetAggStrategy,
    NoAggregationStrategy,
    deploy_boxes,
)
from repro.aggbox.functions import SearchResult, TopKFunction
from repro.core.platform import NetAggPlatform
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
    simulate,
)
from repro.experiments import register
from repro.faults import (
    BOX_CRASH,
    FaultSchedule,
    PlatformFaultInjector,
)
from repro.faults.retry import RetryPolicy
from repro.netsim.metrics import fct_summary
from repro.topology.threetier import three_tier
from repro.wire.records import decode_search_results, encode_search_results

FAULT_RATES = (0.0, 0.1, 0.2, 0.4)

#: Workers represented in the platform exactness check.
_EXACT_WORKERS = 8


def _make_schedule(scale: SimScale, rate: float, horizon: float,
                   seed: int) -> Optional[FaultSchedule]:
    """One schedule per fault rate, shared verbatim across strategies.

    Targets are drawn from the *boxed* topology; strategies without
    boxes simply skip the box events (same link flaps for everyone).
    """
    if rate <= 0:
        return None
    topo = three_tier(scale.topo)
    deploy_boxes(topo)
    boxes = sorted(info.box_id for info in topo.all_boxes())
    links = sorted(
        link.link_id for link in topo.network.wire_links()
        if "->core:" in link.link_id
    )
    return FaultSchedule.generate(
        seed=seed * 7919 + int(rate * 1000),
        duration=horizon,
        boxes=boxes,
        links=links,
        workers=_EXACT_WORKERS,
        box_crashes=max(1, int(rate * len(boxes))),
        link_flaps=max(1, int(rate * len(links))),
        degradations=max(1, int(rate * len(boxes)) // 2),
        churns=1,
    )


def _run_arm(scale: SimScale, arm: str, seed: int,
             schedule: Optional[FaultSchedule]) -> tuple:
    """(p99 FCT, simulated end time) of one strategy under the schedule.

    Fault wiring goes through ``simulate(faults=...)``: the runner
    builds the injector, hands fault-aware strategies its fault view,
    and applies the schedule's events to the simulation.
    """
    if arm == "netagg":
        strategy, deploy = NetAggStrategy(), deploy_boxes
    elif arm == "edge":
        strategy, deploy = BinaryTreeStrategy(), None
    else:
        strategy, deploy = NoAggregationStrategy(), None
    result = simulate(scale, strategy, deploy=deploy, seed=seed,
                      faults=schedule)
    # Tiny scales / heavy schedules may drain nothing; degrade to an
    # explicit NaN row rather than dying inside FctSummary.of.
    end = max((record.drain_time for record in result.records.values()),
              default=0.0)
    return fct_summary(result, empty_ok=True).p99, end


def _check_exact(scale: SimScale, seed: int,
                 schedule: Optional[FaultSchedule]) -> bool:
    """Platform results must survive the schedule byte-identically."""
    topo = three_tier(scale.topo)
    deploy_boxes(topo)
    faults = PlatformFaultInjector(schedule) if schedule else None
    # Retries back off with seeded decorrelated jitter: same spread-out
    # probing a fleet would get, byte-identical results per seed.
    platform = NetAggPlatform(topo, faults=faults,
                              retry=RetryPolicy(decorrelated=True,
                                                seed=seed))
    function = TopKFunction(k=10)
    platform.register_app("topk", function,
                          encode_search_results, decode_search_results)
    if schedule is not None:
        crashes = schedule.events_for(kind=BOX_CRASH)
        if crashes:
            platform.advance_clock(crashes[0].time)
    hosts = sorted(topo.hosts())
    master = hosts[0]
    partials = [
        (host, [SearchResult(doc_id=i * 100 + j, score=float((i * 37 + j * 13)
                                                             % 97))
                for j in range(6)])
        for i, host in enumerate(hosts[1:1 + _EXACT_WORKERS])
    ]
    outcome = platform.execute_request("topk", f"exact:{seed}", master,
                                       partials)
    expected = function.merge([value for _, value in partials])
    return outcome.value == expected


@register("fig_failures")
def run(scale: SimScale = DEFAULT, seed: int = 1,
        fault_rates=FAULT_RATES) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig_failures",
        description="p99 FCT and result exactness vs injected fault rate",
        columns=("fault_rate", "netagg_p99", "edge_p99", "none_p99",
                 "netagg_degradation", "exact"),
        notes="degradation = netagg p99 / fault-free netagg p99; "
              "exact = platform aggregate byte-identical under faults",
    )
    baseline_p99, baseline_end = _run_arm(scale, "netagg", seed, None)
    # The fault horizon covers the fault-free run end to end.
    horizon = max(baseline_end, 1e-6)
    for rate in fault_rates:
        schedule = _make_schedule(scale, rate, horizon, seed)
        netagg_p99 = baseline_p99 if schedule is None \
            else _run_arm(scale, "netagg", seed, schedule)[0]
        edge_p99 = _run_arm(scale, "edge", seed, schedule)[0]
        none_p99 = _run_arm(scale, "none", seed, schedule)[0]
        degradation = netagg_p99 / baseline_p99 if baseline_p99 > 0 \
            else float("nan")
        result.add_row(
            fault_rate=rate,
            netagg_p99=netagg_p99,
            edge_p99=edge_p99,
            none_p99=none_p99,
            netagg_degradation=degradation,
            exact=_check_exact(scale, seed, schedule),
        )
    return result
