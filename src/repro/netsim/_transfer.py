"""Per-flow transfer state for :class:`repro.netsim.simulator.FlowSim`.

A *transferring* flow has been admitted and still has bytes to move.  It
is either *in the rate solve* (the max-min solver holds it and assigns it
a rate each epoch) or *stalled* (its path crosses a down link: it keeps
its remaining bytes but makes no progress).  The simulator loop only
needs that state machine plus two per-epoch questions -- when does the
next flow finish, and who finished after ``dt`` seconds -- so the storage
behind it is private to this module:

- :class:`_ArrayTransfers` keeps remaining bytes in numpy arrays indexed
  by :class:`~repro.netsim.vectorized.VectorizedMaxMin`'s flow slots, so
  draining and completion detection are array operations;
- :class:`_DictTransfers` keeps them in a dict, for
  :class:`~repro.netsim.incremental.IncrementalMaxMin` (the only solver
  on a stdlib-only install).

:func:`transfer_state` picks by the solver it is handed.  Both iterate
flows in admission order wherever order can reach a result or a trace.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Set, Tuple

from repro.netsim.vectorized import VectorizedMaxMin, _np
from repro.units import EPSILON

_INF = float("inf")


def transfer_state(solver, specs: Mapping[str, object]):
    """The transfer state matching ``solver``'s storage.  ``specs`` maps
    flow id -> :class:`~repro.netsim.simulator.FlowSpec` (sizes)."""
    if isinstance(solver, VectorizedMaxMin):
        return _ArrayTransfers(solver, specs)
    return _DictTransfers(solver, specs)


def _drained(size: float) -> float:
    """Remaining bytes at or below which a flow of ``size`` is done."""
    return EPSILON * max(1.0, size)


class _DictTransfers:
    """Transfer state in per-flow dicts (any solver with ``rates()``)."""

    def __init__(self, solver, specs: Mapping[str, object]) -> None:
        self._solver = solver
        self._specs = specs
        #: Remaining bytes per transferring flow, in admission order.
        self._remaining: Dict[str, float] = {}
        self._stalled: Set[str] = set()
        #: This epoch's rates (set by :meth:`next_completion`).
        self._rates: Mapping[str, float] = {}

    def __len__(self) -> int:
        return len(self._remaining)

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._remaining

    @property
    def n_stalled(self) -> int:
        return len(self._stalled)

    def is_stalled(self, flow_id: str) -> bool:
        return flow_id in self._stalled

    def remaining(self, flow_id: str) -> float:
        return self._remaining[flow_id]

    def admit(self, flow_id: str) -> None:
        """Start tracking a flow; it is stalled until :meth:`enter`."""
        self._remaining[flow_id] = self._specs[flow_id].size
        self._stalled.add(flow_id)

    def enter(self, flow_id: str, path: Sequence[str]) -> None:
        """Put a stalled flow into the rate solve on ``path``."""
        self._stalled.discard(flow_id)
        self._solver.add_flow(flow_id, path)

    def leave(self, flow_id: str) -> None:
        """Take a flow out of the rate solve; it keeps its bytes."""
        self._solver.remove_flow(flow_id)
        self._stalled.add(flow_id)

    def next_completion(self) -> float:
        """Consult the solver (once per epoch) and return the seconds
        until the first flow drains at the new rates (inf if none)."""
        rates = self._rates = self._solver.rates()
        stalled = self._stalled
        dt = _INF
        for flow_id, left in self._remaining.items():
            if flow_id in stalled:
                continue
            rate = rates[flow_id]
            if rate == _INF:
                return 0.0
            if rate > 0:
                dt = min(dt, left / rate)
        return dt

    def advance(self, dt: float) -> List[str]:
        """Drain ``dt`` seconds at this epoch's rates; flows that
        finished leave the state and the solver and are returned."""
        rates, remaining, stalled = self._rates, self._remaining, self._stalled
        finished: List[str] = []
        for flow_id in remaining:
            if flow_id in stalled:
                continue
            rate = rates[flow_id]
            if rate == _INF:
                remaining[flow_id] = 0.0
            elif rate > 0.0:
                remaining[flow_id] -= rate * dt
            if remaining[flow_id] <= _drained(self._specs[flow_id].size):
                finished.append(flow_id)
        for flow_id in finished:
            del remaining[flow_id]
            self._solver.remove_flow(flow_id)
        return finished

    def moving_rates(self) -> Iterator[Tuple[str, float]]:
        """(flow id, rate) of every flow in the solve this epoch."""
        for flow_id in self._remaining:
            if flow_id not in self._stalled:
                yield flow_id, self._rates[flow_id]


def _grown(arr, size: int):
    out = _np.zeros(size, dtype=arr.dtype)
    out[:len(arr)] = arr
    return out


class _ArrayTransfers:
    """Transfer state in arrays over ``VectorizedMaxMin``'s slots.

    A flow gets a fresh slot each time it enters the solve; while it is
    stalled its bytes wait in ``_parked``.
    """

    def __init__(self, solver: VectorizedMaxMin,
                 specs: Mapping[str, object]) -> None:
        self._solver = solver
        self._specs = specs
        #: Slot per transferring flow, in admission order; 0 (the
        #: solver's reserved sink slot) marks a stalled flow.
        self._slot: Dict[str, int] = {}
        self._flow_at: Dict[int, str] = {}
        self._parked: Dict[str, float] = {}
        self._rem = _np.zeros(256)
        self._done_at = _np.zeros(256)
        self._live = _np.zeros(256, dtype=bool)
        #: This epoch's (rates, live, remaining, moving) slot views and
        #: whether anything moves (set by :meth:`next_completion`).
        self._epoch = None

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._slot

    @property
    def n_stalled(self) -> int:
        return len(self._parked)

    def is_stalled(self, flow_id: str) -> bool:
        return flow_id in self._parked

    def remaining(self, flow_id: str) -> float:
        slot = self._slot[flow_id]
        return float(self._rem[slot]) if slot else self._parked[flow_id]

    def admit(self, flow_id: str) -> None:
        """Start tracking a flow; it is stalled until :meth:`enter`."""
        self._slot[flow_id] = 0
        self._parked[flow_id] = self._specs[flow_id].size

    def enter(self, flow_id: str, path: Sequence[str]) -> None:
        """Put a stalled flow into the rate solve on ``path``."""
        spec = self._specs[flow_id]
        slot = self._solver.add_flow(flow_id, path)
        n = len(self._rem)
        if slot >= n:
            size = max(slot + 1, 2 * n)
            self._rem = _grown(self._rem, size)
            self._done_at = _grown(self._done_at, size)
            self._live = _grown(self._live, size)
        self._rem[slot] = self._parked.pop(flow_id)
        self._done_at[slot] = _drained(spec.size)
        self._live[slot] = True
        self._flow_at[slot] = flow_id
        self._slot[flow_id] = slot

    def leave(self, flow_id: str) -> None:
        """Take a flow out of the rate solve; it keeps its bytes."""
        slot = self._slot[flow_id]
        self._slot[flow_id] = 0
        self._parked[flow_id] = float(self._rem[slot])
        self._live[slot] = False
        del self._flow_at[slot]
        self._solver.remove_flow(flow_id)

    def next_completion(self) -> float:
        """Consult the solver (once per epoch) and return the seconds
        until the first flow drains at the new rates (inf if none)."""
        nslots = self._solver.nslots
        rate_v = self._solver.rates_array()[:nslots]
        live_v = self._live[:nslots]
        rem_v = self._rem[:nslots]
        moving = live_v & (rate_v > 0.0)
        any_moving = bool(moving.any())
        self._epoch = (rate_v, live_v, rem_v, moving, any_moving)
        if not any_moving:
            return _INF
        return float((rem_v[moving] / rate_v[moving]).min())

    def advance(self, dt: float) -> List[str]:
        """Drain ``dt`` seconds at this epoch's rates; flows that
        finished leave the state and the solver and are returned."""
        rate_v, live_v, rem_v, moving, any_moving = self._epoch
        if any_moving:
            # Infinite-rate flows drain instantly regardless of dt;
            # keep them out of the multiply (inf * 0 = NaN).
            inf_v = moving & _np.isinf(rate_v)
            if inf_v.any():
                rem_v[inf_v] = 0.0
                moving &= ~inf_v
            if dt > 0.0:
                rem_v[moving] -= rate_v[moving] * dt
        done = live_v & (rem_v <= self._done_at[:len(rem_v)])
        finished: List[str] = []
        for slot in _np.nonzero(done)[0].tolist():
            flow_id = self._flow_at.pop(slot)
            del self._slot[flow_id]
            self._live[slot] = False
            self._solver.remove_flow(flow_id)
            finished.append(flow_id)
        return finished

    def moving_rates(self) -> Iterator[Tuple[str, float]]:
        """(flow id, rate) of every flow in the solve this epoch."""
        rates = self._epoch[0].tolist()
        for flow_id, slot in self._slot.items():
            if slot:
                yield flow_id, rates[slot]
