"""Fig. 25 -- CPU sharing with fixed-weight WFQ (the failure case).

Solr and Hadoop co-located on one agg box, both targeting a 50% CPU
share.  A Solr aggregation task runs ~30 ms, a Hadoop task ~1 ms, so
fixed 50/50 *pick* probabilities hand almost all CPU time to Solr --
Hadoop starves (the paper's motivation for the adaptive scheduler).
"""

from __future__ import annotations

from repro.aggbox.scheduler import TaskScheduler, WorkloadSpec
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)

SOLR_TASK_SECONDS = 0.030
HADOOP_TASK_SECONDS = 0.001

_QUICK = dict(duration=20.0)


@register("fig25")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(seed=seed, **(_QUICK if scale.name == "quick" else {}))


def _sweep(duration: float = 30.0, seed: int = 1,
           adaptive: bool = False) -> ExperimentResult:
    scheduler = TaskScheduler(
        [
            WorkloadSpec("solr", task_seconds=SOLR_TASK_SECONDS,
                         target_share=0.5),
            WorkloadSpec("hadoop", task_seconds=HADOOP_TASK_SECONDS,
                         target_share=0.5),
        ],
        adaptive=adaptive,
        seed=seed,
    )
    outcome = scheduler.run(duration)
    label = "adaptive" if adaptive else "fixed"
    result = ExperimentResult(
        experiment="fig26" if adaptive else "fig25",
        description=f"CPU share over time, {label}-weight WFQ "
                    "(solr vs hadoop, 50/50 target)",
        columns=("time_s", "solr_share", "hadoop_share"),
        notes=f"overall: solr={outcome.overall_share('solr'):.2f} "
              f"hadoop={outcome.overall_share('hadoop'):.2f}",
    )
    for when, snapshot in outcome.timeline:
        result.add_row(
            time_s=when,
            solr_share=snapshot["solr"],
            hadoop_share=snapshot["hadoop"],
        )
    return result
