"""A deliberately-simple reference simulator for cross-validation.

:class:`repro.netsim.simulator.FlowSim` advances between exact events;
this module re-simulates the same flow set by brute force: fixed small
time steps, recomputing max-min rates every step and draining bytes.
It is orders of magnitude slower and slightly inaccurate at step
granularity -- which is the point: two implementations with different
failure modes should agree within the step error, and the property
tests assert they do.

Only used by tests; never by the experiments.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.netsim.fairness import max_min_rates
from repro.netsim.network import Network
from repro.netsim.simulator import FlowSpec


def simulate_reference(
    network: Network,
    specs: Sequence[FlowSpec],
    time_step: float,
    max_time: float = 1e6,
) -> Dict[str, Tuple[float, float]]:
    """Brute-force simulation; returns flow id -> (admitted, drained).

    Semantics mirror :class:`FlowSim`: a flow is admitted when its start
    time has passed and all its children have drained; active flows
    share bandwidth max-min fairly; zero-size/empty-path flows finish on
    admission.  Completions are detected at step boundaries, so drain
    times are accurate to within one ``time_step``.
    """
    if time_step <= 0:
        raise ValueError("time_step must be positive")
    capacities = network.capacities()
    by_id = {spec.flow_id: spec for spec in specs}
    remaining: Dict[str, float] = {}
    admitted: Dict[str, float] = {}
    drained: Dict[str, float] = {}

    def ready(spec: FlowSpec, now: float) -> bool:
        if spec.flow_id in admitted:
            return False
        if now < spec.start_time - 1e-12:
            return False
        return all(child in drained for child in spec.children)

    now = 0.0
    while len(drained) < len(by_id):
        if now > max_time:
            raise RuntimeError("reference simulation exceeded max_time")
        # Admit (repeat until stable: zero-size flows cascade).
        progress = True
        while progress:
            progress = False
            for spec in by_id.values():
                if not ready(spec, now):
                    continue
                admitted[spec.flow_id] = max(now, spec.start_time)
                if spec.size <= 0 or not spec.path:
                    drained[spec.flow_id] = admitted[spec.flow_id]
                else:
                    remaining[spec.flow_id] = spec.size
                progress = True

        if not remaining:
            # Idle until the next start time.
            future = [
                spec.start_time for spec in by_id.values()
                if spec.flow_id not in admitted
                and spec.start_time > now
            ]
            if not future:
                if len(drained) < len(by_id):
                    # Remaining flows wait on children that finish at
                    # exactly `now`; loop once more.
                    now += time_step
                continue
            now = min(future)
            continue

        rates = max_min_rates(
            {fid: by_id[fid].path for fid in remaining}, capacities)
        now += time_step
        finished: List[str] = []
        for flow_id in remaining:
            rate = rates[flow_id]
            if rate == float("inf"):
                remaining[flow_id] = 0.0
            else:
                remaining[flow_id] -= rate * time_step
            if remaining[flow_id] <= 1e-9:
                finished.append(flow_id)
        for flow_id in finished:
            del remaining[flow_id]
            drained[flow_id] = now

    return {
        flow_id: (admitted[flow_id], drained[flow_id])
        for flow_id in by_id
    }
