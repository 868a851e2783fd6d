"""Fig. 15 -- processing rate of an in-memory local aggregation tree.

Micro-benchmark of one agg box's pipelined tree: throughput vs number of
leaves for several thread-pool sizes, WordCount combine at α=10%.
Paper shape: throughput grows with leaves (more schedulable tasks) and
saturates near the 10 Gbps ingest with a large enough pool.
"""

from __future__ import annotations

from repro.aggbox.localtree import LocalTreeModel, TreeModelParams
from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.units import to_gbps

LEAVES = (2, 4, 8, 16, 32, 64)
THREADS = (8, 16, 24, 32)

#: Reduced sweep used at ``quick`` scale (CI); other scales run the
#: paper's full grid.
_QUICK = dict(leaves=(4, 16, 64), threads=(8, 32))


@register("fig15")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _sweep(**(_QUICK if scale.name == "quick" else {}))


def _sweep(leaves=LEAVES, threads=THREADS, alpha: float = 0.10
           ) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig15",
        description="local aggregation tree throughput (Gbps) vs leaves",
        columns=("leaves",) + tuple(f"threads_{t}" for t in threads),
    )
    for n_leaves in leaves:
        row = {"leaves": n_leaves}
        for n_threads in threads:
            model = LocalTreeModel(TreeModelParams(
                leaves=n_leaves, threads=n_threads, alpha=alpha,
            ))
            row[f"threads_{n_threads}"] = to_gbps(model.run().throughput)
        result.add_row(**row)
    return result
