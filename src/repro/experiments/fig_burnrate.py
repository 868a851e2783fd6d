"""fig_burnrate -- burn-rate alert lead time ahead of SLO exhaustion.

Not a paper figure: the live-telemetry face of ``repro.obs.live``.
The question a burn-rate alert must answer is *how much earlier than
the actual SLO breach does it fire?* -- an alert that arrives after
the error budget is spent is a post-mortem, not an alert.

The workload is ``fig_selfheal``'s drifting hotspot, optimizer off
(the ``noopt`` arm): a Zipfian worker placement whose hot rack walks
across the deployment while that rack's ToR box is degraded, so each
phase manufactures a real latency regression.  Per load point:

- every *worker* flow completion becomes one SLO event on the virtual
  clock (good iff its FCT is within the SLO, the same
  ``SLO_MULTIPLIER x uncongested p99`` anchor ``fig_selfheal`` uses),
  streamed in completion order into an :class:`~repro.obs.live
  .SloMonitor` with the standard fast/slow multi-window objective;
- ``alert_at`` is the first burn-rate alert's (virtual) time;
- ``breach_at`` is when the run's error budget is actually exhausted:
  the first instant the *cumulative* bad fraction exceeds the
  objective's budget (after a small warm-up so one early straggler
  cannot 'breach' a three-event stream);
- ``lead_s = breach_at - alert_at`` is the headline: positive means
  the multi-window alert fired *before* the budget was gone.

At loads that never exhaust the budget the alert should ideally stay
quiet (the slow 1x-budget window is the guard); ``alerts`` makes the
false-positive behaviour visible per row.  A row that never alerts or
never breaches reports -1 for the corresponding time.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments import register
from repro.experiments.common import DEFAULT, ExperimentResult, SimScale
from repro.experiments.fig_selfheal import (
    SLO_MULTIPLIER,
    _loaded_scale,
    _run_arm,
    _violations,
)
from repro.netsim.metrics import fct_summary
from repro.obs.live import SloMonitor, SloObjective

LOADS = (1.0, 2.0, 3.0)

#: The per-run SLO objective.  Windows are sized to the drift phase
#: (0.5 s of the 2 s arrival span): the fast window sees one burst,
#: the slow window spans a whole phase.
OBJECTIVE = SloObjective(key="flows", target=0.9,
                         fast_window=0.125, slow_window=0.5,
                         fast_burn=5.0, slow_burn=1.0)

#: Completions before the cumulative budget check is trusted.
BREACH_WARMUP = 20


def completion_events(result, slo: float) -> List[Tuple[float, bool]]:
    """(drain_time, good) of every worker flow, completion order."""
    events = [
        (record.drain_time, record.fct <= slo)
        for record in result.records.values()
        if record.spec.kind == "worker"
    ]
    events.sort(key=lambda event: event[0])
    return events


def breach_time(events: Sequence[Tuple[float, bool]], budget: float,
                warmup: int = BREACH_WARMUP) -> float:
    """When the cumulative bad fraction first exceeds the budget.

    -1.0 when the stream never exhausts it.  ``warmup`` suppresses the
    degenerate early breach (1 bad of the first 2 events is a 50% bad
    fraction but says nothing about the run).
    """
    bad = 0
    for index, (at, good) in enumerate(events):
        if not good:
            bad += 1
        if index + 1 >= warmup and bad / (index + 1) > budget:
            return at
    return -1.0


def first_alert(events: Sequence[Tuple[float, bool]],
                objective: SloObjective = OBJECTIVE,
                ) -> Tuple[float, int]:
    """(first alert time or -1.0, total alerts) over the stream."""
    monitor = SloMonitor(template=objective)
    monitor.add_objective(objective)
    for at, good in events:
        monitor.record(objective.key, at, good)
        monitor.evaluate(at)
    if not monitor.alerts:
        return -1.0, 0
    return monitor.alerts[0].at, len(monitor.alerts)


@register("fig_burnrate")
def run(scale: SimScale = DEFAULT, seed: int = 1,
        loads: Sequence[float] = LOADS) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig_burnrate",
        description="Burn-rate alert lead time vs actual SLO budget "
                    "exhaustion under the drifting-hotspot workload",
        columns=("load", "alerts", "alert_at", "breach_at", "lead_s",
                 "viol_frac"),
        notes="SLO = {mult:g}x uncongested p99; objective: target "
              "{target:g}, fast {fast:g}s@>={fb:g}x / slow {slow:g}s"
              "@>={sb:g}x burn; breach = cumulative bad fraction past "
              "the {budget:g} budget; lead = breach - alert (-1 = "
              "never)".format(
                  mult=SLO_MULTIPLIER, target=OBJECTIVE.target,
                  fast=OBJECTIVE.fast_window, fb=OBJECTIVE.fast_burn,
                  slow=OBJECTIVE.slow_window, sb=OBJECTIVE.slow_burn,
                  budget=OBJECTIVE.budget),
    )
    # Same anchor as fig_selfheal: an uncongested, unskewed reference
    # run at the lowest load sets the latency SLO.
    from repro.aggregation import NetAggStrategy, deploy_boxes
    from repro.experiments.common import simulate

    reference = simulate(_loaded_scale(scale, min(loads)),
                         NetAggStrategy(), deploy=deploy_boxes, seed=seed)
    slo = SLO_MULTIPLIER * fct_summary(reference, empty_ok=True).p99
    for load in sorted(loads):
        sim_result, _ = _run_arm(_loaded_scale(scale, load), "noopt",
                                 seed)
        events = completion_events(sim_result, slo)
        alert_at, alerts = first_alert(events)
        breach_at = breach_time(events, OBJECTIVE.budget)
        lead = (breach_at - alert_at
                if alert_at >= 0.0 and breach_at >= 0.0 else -1.0)
        result.add_row(
            load=load,
            alerts=alerts,
            alert_at=alert_at,
            breach_at=breach_at,
            lead_s=lead,
            viol_frac=_violations(sim_result, slo),
        )
    return result
