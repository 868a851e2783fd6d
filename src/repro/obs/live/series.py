"""Windowed time-series over virtual time: the live half of obs.

The post-hoc pipeline (``Tracer`` -> export -> ``repro.obs.analyze``)
answers questions *after* a run; this module answers them *during* one.
A :class:`TimeSeriesStore` holds named :class:`WindowedSeries` -- ring
buffers of ``(at, value)`` points on whatever virtual clock the caller
runs -- and folds them into tumbling or sliding :class:`WindowStats`
on demand:

- **gauge/event series** (``observe``): each point is one measurement
  (a request latency, a queue depth); window queries return
  count/sum/min/max/mean and exact percentiles over the in-window
  points (the ring bound caps the work and the memory);
- **counter series** (``count`` / ``record_counter``): each point is a
  cumulative total; window queries return the *delta* and the *rate*
  over the window, which is how counters become live throughput
  numbers without per-event bookkeeping.

Memory is bounded by construction: every series retains at most
``2 * SERIES_MAXLEN`` points (amortised-O(1) batch eviction of the oldest).
Under sustained load a window query therefore covers the most recent
retained points that fall in the window -- a documented approximation,
not a leak.

This module is also the one sanctioned home for windowing/EWMA
arithmetic: ``tools/check_obs.py`` lints ad-hoc reimplementations
outside ``repro.obs.live`` (:func:`ewma_step` is the shared smoothing
primitive; :class:`repro.core.partition.GrayDetector` consumes it).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.units import percentile

#: Series kinds (a name keeps the kind it was first created with).
GAUGE = "gauge"
COUNTER = "counter"

#: Per-series ring capacity.
SERIES_MAXLEN = 1024


def ewma_step(previous: Optional[float], sample: float,
              alpha: float) -> float:
    """One exponentially-weighted moving-average update.

    ``previous=None`` seeds the average with the sample.  The single
    shared implementation of the smoothing arithmetic that used to be
    re-derived inline wherever a baseline was needed.
    """
    if previous is None:
        return sample
    return previous + alpha * (sample - previous)


@dataclass(frozen=True)
class WindowStats:
    """Aggregates of one window of one series."""

    start: float
    end: float
    count: int
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    p50: float = 0.0
    p99: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

_EMPTY = WindowStats(start=0.0, end=0.0, count=0)


class WindowedSeries:
    """One named ring buffer of ``(at, value)`` points.

    Points must arrive in non-decreasing ``at`` order (all layers run
    single-threaded on monotonic virtual clocks); the ring then stays
    sorted by construction and window queries are two binary searches.
    The ring is a compacted list pair -- appends are O(1) amortised,
    eviction drops the oldest half-batch once the list doubles past
    :data:`SERIES_MAXLEN`, and random access stays O(1) for the bisects.
    """

    __slots__ = ("name", "kind", "_at", "_values")

    def __init__(self, name: str, kind: str = GAUGE) -> None:
        if kind not in (GAUGE, COUNTER):
            raise ValueError(f"unknown series kind {kind!r}")
        self.name = name
        self.kind = kind
        self._at: List[float] = []
        self._values: List[float] = []

    def observe(self, at: float, value: float) -> None:
        """Append one point (``at`` must not move backwards)."""
        if self._at and at < self._at[-1]:
            raise ValueError(
                f"series {self.name!r}: point at {at} precedes the "
                f"latest point at {self._at[-1]}")
        self._at.append(float(at))
        self._values.append(float(value))
        if len(self._at) > 2 * SERIES_MAXLEN:
            del self._at[:-SERIES_MAXLEN]
            del self._values[:-SERIES_MAXLEN]

    def last(self) -> Optional[Tuple[float, float]]:
        if not self._at:
            return None
        return self._at[-1], self._values[-1]

    def points(self, start: float,
               end: float) -> List[Tuple[float, float]]:
        """In-window points, ``start < at <= end`` (half-open on the
        left so tumbling windows partition the timeline); only retained
        (non-evicted) points are visible."""
        lo = bisect_right(self._at, start)
        hi = bisect_right(self._at, end)
        return list(zip(self._at[lo:hi], self._values[lo:hi]))

    # -- gauge-style queries -----------------------------------------------

    def window(self, at: float, window: float) -> WindowStats:
        """Sliding-window aggregates over ``(at - window, at]``."""
        start = at - window
        inside = [v for _, v in self.points(start, at)]
        if not inside:
            return WindowStats(start=start, end=at, count=0)
        return WindowStats(
            start=start, end=at, count=len(inside), total=sum(inside),
            minimum=min(inside), maximum=max(inside),
            p50=percentile(inside, 50.0), p99=percentile(inside, 99.0),
        )

    # -- counter-style queries ---------------------------------------------

    def value_at(self, at: float) -> float:
        """Latest cumulative value at or before ``at`` (0 before the
        first retained point -- the documented ring approximation)."""
        index = bisect_right(self._at, at) - 1
        if index < 0:
            return 0.0
        return self._values[index]

    def delta(self, at: float, window: float) -> float:
        """Cumulative-value increase over ``(at - window, at]``."""
        return self.value_at(at) - self.value_at(at - window)

    def rate(self, at: float, window: float) -> float:
        """Per-second rate over the window (delta / window)."""
        if window <= 0:
            raise ValueError("window must be positive")
        return self.delta(at, window) / window


class TimeSeriesStore:
    """Name -> :class:`WindowedSeries` map with get-or-create access."""

    def __init__(self) -> None:
        self._series: Dict[str, WindowedSeries] = {}

    def series(self, name: str, kind: str = GAUGE) -> WindowedSeries:
        series = self._series.get(name)
        if series is None:
            series = WindowedSeries(name, kind=kind)
            self._series[name] = series
        elif series.kind != kind:
            raise TypeError(
                f"series {name!r} is a {series.kind}, not a {kind}")
        return series

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._series if n.startswith(prefix))

    # -- recording ---------------------------------------------------------

    def observe(self, name: str, at: float, value: float) -> None:
        """Append one gauge/event measurement."""
        self.series(name, GAUGE).observe(at, value)

    def count(self, name: str, at: float, n: float = 1.0) -> None:
        """Bump a store-owned cumulative counter by ``n`` at ``at``."""
        series = self.series(name, COUNTER)
        last = series.last()
        total = (last[1] if last else 0.0) + n
        # Same-timestamp bumps fold into one point (the ring stays one
        # point per distinct instant under bursts).
        if last and last[0] == at:
            series._values[-1] = total
        else:
            series.observe(at, total)

    # -- queries -----------------------------------------------------------

    def window(self, name: str, at: float, window: float) -> WindowStats:
        series = self._series.get(name)
        if series is None:
            return _EMPTY
        return series.window(at, window)

    def rate(self, name: str, at: float, window: float) -> float:
        series = self._series.get(name)
        if series is None:
            return 0.0
        return series.rate(at, window)

    def delta(self, name: str, at: float, window: float) -> float:
        series = self._series.get(name)
        if series is None:
            return 0.0
        return series.delta(at, window)
