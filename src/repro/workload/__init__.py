"""Synthetic data-centre workloads (§4.1 of the paper).

The paper's simulation workload is modelled after published traces of a
cluster running large data-mining jobs: Pareto flow sizes, a power-law
number of workers per job, a fixed fraction of aggregatable traffic, and
locality-aware worker placement.  All of that is generated here, fully
seeded and deterministic.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.workload.placement": ["LocalityAwarePlacer", "RandomPlacer"],
    "repro.workload.stragglers": ["StragglerModel", "inject_stragglers"],
    "repro.workload.synthetic": [
        "AggJob", "BackgroundFlow", "Workload", "WorkloadParams",
        "generate_workload",
    ],
})
