"""Ablation -- request latency under co-location (Figs. 25/26, latency view).

The paper's fairness figures show CPU *shares*; this experiment shows
what those shares buy: the aggregation latency of a latency-sensitive
online application (Solr-like, 30 ms merges) co-located with a
throughput-oriented batch application (Hadoop-like, 1 ms merges),
under fixed vs adaptive weighted fair queuing.

With fixed weights the batch app starves (Fig. 25) -- its queue grows
without bound and its merge latency explodes; the adaptive scheduler
holds both applications near their target shares and keeps batch
latency finite at a modest cost to the online app.
"""

from __future__ import annotations

from typing import Dict

from repro.aggbox.box import AppBinding
from repro.aggbox.functions import SumFunction
from repro.aggbox.timed import TimedAggBox
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.netsim.engine import EventQueue
from repro.units import percentile
from repro.wire.serializer import write_float

#: Bytes per partial result chosen so merges cost ~30 ms (online) and
#: ~1 ms (batch) on one core at the default rate.
ONLINE_BYTES = 2_400_000.0
BATCH_BYTES = 80_000.0
PARTIALS_PER_REQUEST = 4


def _binding(app: str) -> AppBinding:
    return AppBinding(
        app=app,
        function=SumFunction(),
        deserialise=None,  # the timed box is fed decoded values
        serialise=write_float,
    )


def _drive(adaptive: bool, duration: float, cores: int,
           seed_requests: int) -> Dict[str, float]:
    queue = EventQueue()
    box = TimedAggBox(queue, cores=cores, adaptive=adaptive)
    box.register_app(_binding("online"), target_share=0.5)
    box.register_app(_binding("batch"), target_share=0.5)

    def offer(app: str, nbytes: float, interval: float, index: int = 0):
        def fire() -> None:
            request = f"{app}:{index_holder[0]}"
            index_holder[0] += 1
            box.announce(app, request, expected=PARTIALS_PER_REQUEST)
            for source in range(PARTIALS_PER_REQUEST):
                box.submit(app, request, f"w{source}", 1.0, nbytes)
            if queue.now + interval < duration:
                queue.schedule(interval, fire)

        index_holder = [index]
        queue.schedule(0.0, fire)

    # The box is saturated, as in the paper's co-location experiment:
    # the online app offers 4 cores of demand on a 4-core box (it is
    # effectively backlogged), the batch app needs 1.5 cores.  Under
    # fixed count-fair picks the batch time share collapses to ~3%
    # (0.12 cores << 1.5), so its latency diverges; the adaptive
    # scheduler restores its 50% target (2 cores) at the cost of online
    # throughput.
    offer("online", ONLINE_BYTES, interval=0.030)
    offer("batch", BATCH_BYTES, interval=0.00267, index=1_000_000)
    queue.run(until=duration)

    out: Dict[str, float] = {}
    for app in ("online", "batch"):
        latencies = box.latencies(app)
        out[f"{app}_p99_ms"] = (
            percentile(latencies, 99.0) * 1e3 if latencies else float("inf")
        )
        out[f"{app}_done"] = len(latencies)
    out["online_cpu_share"] = box.executor.cpu_seconds["online"] / max(
        sum(box.executor.cpu_seconds.values()), 1e-12
    )
    return out


_QUICK = dict(duration=10.0)


@register("ablation_colocation")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(**(_QUICK if scale.name == "quick" else {}))


def _sweep(duration: float = 20.0, cores: int = 4) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation-colocation",
        description="co-located merge latency: fixed vs adaptive WFQ",
        columns=("scheduler", "online_p99_ms", "batch_p99_ms",
                 "online_cpu_share", "online_done", "batch_done"),
    )
    for adaptive in (False, True):
        row = _drive(adaptive, duration, cores, 0)
        result.add_row(
            scheduler="adaptive" if adaptive else "fixed",
            online_p99_ms=row["online_p99_ms"],
            batch_p99_ms=row["batch_p99_ms"],
            online_cpu_share=row["online_cpu_share"],
            online_done=row["online_done"],
            batch_done=row["batch_done"],
        )
    return result
