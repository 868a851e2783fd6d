"""Ablation -- pipelined vs store-and-forward local aggregation (§3.2.1).

The agg box streams *chunks* through its local tree ("executed in a
pipelined fashion by streaming data across the aggregation tasks").
The ablation coarsens the streaming granularity up to whole partial
results -- at which point every merge waits for its complete inputs
(store-and-forward) and the tree's levels serialise, costing throughput
and buffering.
"""

from __future__ import annotations

from repro.aggbox.localtree import LocalTreeModel, TreeModelParams
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.units import MB, to_gbps

#: Streaming granularities, fine to whole-input.
CHUNK_SIZES = (64_000.0, 256_000.0, 1 * MB, 8 * MB)


_QUICK = dict(leaves=16, threads=8)


@register("ablation_streaming")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(**(_QUICK if scale.name == "quick" else {}))


def _sweep(chunk_sizes=CHUNK_SIZES, leaves: int = 32,
           threads: int = 16, bytes_per_leaf: float = 8 * MB
           ) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation-streaming",
        description="local-tree throughput (Gbps) vs streaming chunk size "
                    "(largest = store-and-forward)",
        columns=("chunk_mb", "throughput_gbps", "tasks"),
    )
    for chunk in chunk_sizes:
        model = LocalTreeModel(TreeModelParams(
            leaves=leaves, threads=threads, chunk_bytes=chunk,
            bytes_per_leaf=bytes_per_leaf,
        ))
        outcome = model.run()
        result.add_row(
            chunk_mb=chunk / MB,
            throughput_gbps=to_gbps(outcome.throughput),
            tasks=outcome.tasks_executed,
        )
    return result
