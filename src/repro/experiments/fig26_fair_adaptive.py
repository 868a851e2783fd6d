"""Fig. 26 -- CPU sharing with the adaptive scheduler (the fix).

Same co-location as Fig. 25, but weights adapt to measured task
durations (w_i proportional to target/duration): CPU time converges to
the 50/50 target despite the 30x task-length asymmetry.
"""

from __future__ import annotations

from repro.experiments import register
from repro.experiments.common import (
    DEFAULT,
    ExperimentResult,
    SimScale,
)
from repro.experiments.fig25_fair_fixed import _QUICK, _sweep


@register("fig26")
def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
    return _adaptive(seed=seed, **(_QUICK if scale.name == "quick" else {}))


def _adaptive(duration: float = 30.0, seed: int = 1) -> ExperimentResult:
    return _sweep(duration=duration, seed=seed, adaptive=True)
