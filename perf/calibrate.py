"""Paired calibration: express every timing in reference-machine units.

This box is shared: it has bursts of slowdown lasting seconds that
inflate CPU time as well as wall time, so raw timings of identical code
differ by 10-30 % between back-to-back runs.  The benchmark therefore
brackets every timed unit of work with a fixed *calibration kernel* and
scales the unit's wall time by ``CAL_REF_S / local kernel
wall time`` (CPU time likewise, with the kernel's CPU time).  A unit
that ran while the machine was 30 % slow is divided by a kernel that was
30 % slow too.

What normalisation cannot remove (a burst that starts mid-unit, cache
pressure that hits the workload harder than the kernel) is handled by
the statistics: timed units are short and many, identical inputs differ
only by machine noise, so a *low* quantile of the normalised times
estimates the program's own cost.

The kernel is GC-neutral on purpose: it runs with the collector off and
frees everything it allocates by reference count.  A first kernel that
grew a list with the collector on was itself bimodal from gen-2
collections.

Every function that reads a clock takes the clocks (and the kernel) as
arguments, so ``perf/tests`` can drive the whole pipeline with a fake
clock.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The kernel's duration on the reference machine, by definition.  All
#: normalised times are "seconds on a machine where the kernel takes
#: this long"; the round counts below make that roughly this box.
CAL_REF_S = 0.010

Clock = Callable[[], float]

_TABLE = list(range(257))
_MAP = {i: (i * 7) % 257 for i in range(257)}
_SLOTS = 1 << 15
_ORDER = [(i * 7919) % _SLOTS for i in range(_SLOTS)]
_VALUES = {i: float(i) for i in range(_SLOTS)}
try:
    import numpy as _np
    _ARRAY = _np.arange(4096, dtype=_np.float64)
    _INDEX = _np.arange(0, 4096, 3)
except ImportError:          # the program runs without numpy; so do we
    _np = None


def monotonic() -> float:
    """``CLOCK_MONOTONIC``: one clock for a parent and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _arithmetic(rounds: int = 30_000) -> int:
    """Interpreter loop: list index, dict lookup, small-int arithmetic."""
    table, mapping, acc = _TABLE, _MAP, 0
    for i in range(rounds):
        j = (acc + i) % 257
        acc = (table[j] + mapping[j] + acc) & 0xFFFF
    return acc


def _event_loop(rounds: int = 2_500) -> int:
    """Allocation and memory traffic: closures through a heap, lookups
    spread over a working set larger than the inner cache -- what the
    emulator and the platform do all day."""
    order, values, mask = _ORDER, _VALUES, _SLOTS - 1
    push, pop = heapq.heappush, heapq.heappop
    heap: list = []
    acc = [0]

    def make(i: int) -> Callable[[], None]:
        def fire() -> None:
            acc[0] = int(values[order[(acc[0] + i) & mask]]) ^ i
        return fire

    for i in range(rounds):
        push(heap, (float(order[i]), i, make(i)))
    while heap:
        pop(heap)[2]()
    return acc[0]


def _array_ops(rounds: int = 600) -> float:
    """Small-array numpy dispatch: what the vectorized solver does."""
    array, index, total = _ARRAY, _INDEX, 0.0
    for _ in range(rounds):
        picked = array[index] * 1.0001
        low = picked.min()
        total += low + float(_np.minimum(picked, low + 1.0)[0])
    return total


def kernel() -> None:
    """The calibration kernel: three kinds of fixed work in equal parts.

    One kind alone tracks the machine badly: over seven minutes on this
    box, 12-second lower quartiles of an emulator unit normalised by the
    arithmetic part alone wandered with a 1.0 % coefficient of variation
    (raw: 1.8 %), by all three parts 0.7 %.

    Nothing it allocates survives the call or forms a cycle.
    """
    _arithmetic()
    _event_loop()
    if _np is not None:
        _array_ops()


@dataclass(frozen=True)
class Cal:
    """One calibration reading: best-of-N kernel wall and CPU seconds."""

    wall: float
    cpu: float

    @property
    def slowdown(self) -> float:
        """How much slower than the reference machine the box was."""
        return self.wall / CAL_REF_S


def measure(wall_clock: Clock = time.perf_counter,
            cpu_clock: Clock = time.process_time,
            work: Callable[[], object] = kernel,
            repeats: int = 3) -> Cal:
    """Time the kernel ``repeats`` times; keep the best wall and CPU.

    The collector is off meanwhile (the kernel frees what it allocates
    by reference count), so no collection lands inside a reading.
    """
    best_wall = best_cpu = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            wall, cpu = wall_clock(), cpu_clock()
            work()
            cpu, wall = cpu_clock() - cpu, wall_clock() - wall
            best_wall, best_cpu = min(best_wall, wall), min(best_cpu, cpu)
    finally:
        if enabled:
            gc.enable()
    return Cal(best_wall, best_cpu)


#: Two bracketing readings further apart than this mean the machine
#: changed speed while the unit ran.
STEADY_RATIO = 1.10


@dataclass
class Sample:
    """One timed unit of work, raw and normalised."""

    unit: int            #: which of the workload's inputs this ran
    ops: int
    failed: int
    wall: float          #: raw seconds
    cpu: float           #: raw process-CPU seconds
    before: Cal          #: kernel reading just before the unit
    after: Cal           #: ... and just after
    #: Raw per-request latencies inside the unit (serving workloads).
    latencies: Sequence[float] = ()
    #: The span recorder's group this unit ran under (traced runs).
    group: int = -1

    @property
    def cal(self) -> Cal:
        """The kernel time that applies to the unit: the readings' mean."""
        return Cal((self.before.wall + self.after.wall) / 2,
                   (self.before.cpu + self.after.cpu) / 2)

    @property
    def steady(self) -> bool:
        """False when the machine changed speed under the unit: the mean
        of the readings then misjudges it, by up to half the change and
        in either direction, so its timings are not used."""
        low, high = sorted((self.before.wall, self.after.wall))
        return high <= STEADY_RATIO * low

    @property
    def scale(self) -> float:
        """Reference seconds per raw wall second around this unit."""
        return CAL_REF_S / self.cal.wall

    @property
    def norm_wall(self) -> float:
        return self.wall * self.scale

    @property
    def norm_cpu(self) -> float:
        return self.cpu * CAL_REF_S / self.cal.cpu

    @property
    def norm_latencies(self) -> List[float]:
        scale = self.scale
        return [value * scale for value in self.latencies]


class PairedTimer:
    """Time units of work, each bracketed by calibration readings.

    The reading after one unit is the reading before the next, so the
    steady-state cost is one ``measure()`` per unit.  ``collect`` runs
    right before each unit, outside the timed region: a full collection
    puts every unit at the same point of the collector's schedule, so
    the collections the unit itself triggers are the same every time.
    """

    def __init__(self, wall_clock: Clock = time.perf_counter,
                 cpu_clock: Clock = time.process_time,
                 cal_work: Callable[[], object] = kernel,
                 collect: Callable[[], object] = gc.collect) -> None:
        self._wall, self._cpu = wall_clock, cpu_clock
        self._cal_work, self._collect = cal_work, collect
        self._last: Optional[Cal] = None
        self.samples: List[Sample] = []

    def _measure(self) -> Cal:
        return measure(self._wall, self._cpu, self._cal_work)

    def run(self, unit: int, work: Callable[[], object],
            check: Callable[[object], Tuple[int, int, Sequence[float]]],
            ) -> Sample:
        """Time ``work()``; then, untimed, ``check(result)`` -> (ops,
        failed ops, per-request latencies)."""
        before = self._last or self._measure()
        self._collect()
        wall, cpu = self._wall(), self._cpu()
        result = work()
        cpu, wall = self._cpu() - cpu, self._wall() - wall
        after = self._last = self._measure()
        ops, failed, latencies = check(result)
        sample = Sample(unit, ops, failed, wall, cpu, before, after,
                        latencies)
        self.samples.append(sample)
        return sample


# -- statistics ---------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, defined for any non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def lower_quartile(values: Sequence[float]) -> float:
    return quantile(values, 0.25)


def steady(samples: Sequence[Sample]) -> List[Sample]:
    """The steady samples (all of them when none was)."""
    return [s for s in samples if s.steady] or list(samples)


def by_unit(samples: Iterable[Sample]) -> Dict[int, List[Sample]]:
    """unit -> its steady repeats (all of them when none was steady)."""
    groups: Dict[int, List[Sample]] = {}
    for sample in samples:
        groups.setdefault(sample.unit, []).append(sample)
    return {unit: steady(group) for unit, group in groups.items()}


def throughput_ops_s(samples: Sequence[Sample]) -> float:
    """Ops of one pass over the inputs / its low-quantile normalised time.

    Each distinct input (unit) contributes the lower quartile of its own
    repeats: repeats of one input differ only by machine noise, so a
    low quantile estimates what that input costs.
    """
    groups = by_unit(samples)
    ops = sum(group[0].ops for group in groups.values())
    seconds = sum(lower_quartile([s.norm_wall for s in group])
                  for group in groups.values())
    return ops / seconds


def raw_throughput_ops_s(samples: Sequence[Sample]) -> float:
    return sum(s.ops for s in samples) / sum(s.wall for s in samples)


def cpu_ms_per_op(samples: Sequence[Sample]) -> float:
    """Mean normalised CPU per op: a mean, so that a rare stall the
    lower quartile hides still shows."""
    kept = steady(samples)
    return 1e3 * sum(s.norm_cpu for s in kept) / sum(s.ops for s in kept)


def clean_latencies(samples: Sequence[Sample]) -> List[float]:
    """One noise-stripped latency per distinct request of the inputs.

    Every repeat of a unit replays the same requests in the same order,
    so position ``r`` of unit ``u`` is one request measured once per
    repeat; its clean latency is the lower quartile of those readings.
    A unit without requests (one simulation, one emulation) is itself
    the request.
    """
    clean: List[float] = []
    for group in by_unit(samples).values():
        repeats = [s.norm_latencies or [s.norm_wall] for s in group]
        clean.extend(lower_quartile(readings) for readings in zip(*repeats))
    return clean


def latency_p50_ms(samples: Sequence[Sample]) -> float:
    """Median over the inputs' requests of their clean latency."""
    return 1e3 * quantile(clean_latencies(samples), 0.5)


def latency_p90_ms(samples: Sequence[Sample]) -> float:
    """90th percentile over the inputs' requests of their clean latency.

    A plain p90 over every reading of a run is set by whichever units
    ran during a burst; stripping the noise per request first leaves
    the spread that belongs to the program and its inputs.
    """
    return 1e3 * quantile(clean_latencies(samples), 0.9)
