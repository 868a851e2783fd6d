"""The metrics registry: named counters and histograms.

One process-wide :data:`METRICS` registry absorbs the ad-hoc telemetry
that used to live in three places -- the flow simulator's module-wide
work counters, the platform's shim-event tallies, and per-box
stats -- behind a single flat :meth:`MetricsRegistry.snapshot`.
Namespacing is by dotted prefix:

- ``netsim.*``   -- runs, flows, rate epochs, incremental-solver work;
- ``platform.*`` -- shim lifecycle events (``platform.shim.retry``,
  ``platform.shim.nack``, ...);
- ``aggbox.*``   -- partials received, local-tree and scheduler tasks.

Metric objects are stable: ``counter(name)`` get-or-creates, and
``reset()`` zeroes values *in place*, so hot paths may cache the
returned object across resets.  Everything is plain Python -- no
locks, no dependencies -- matching the single-threaded virtual-clock
execution model of the reproduction.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union


class LogBins:
    """A fixed log-spaced bucket scheme shared by all histograms.

    ``bins_per_decade`` buckets per power of ten between ``10**lo_exp``
    and ``10**hi_exp``, plus an underflow bucket (index 0, catching
    zero and negatives) and a clamp into the last bucket for overflow.
    The scheme is *fixed*: a histogram's memory is bounded by the bin
    count regardless of how many values it absorbs, and the relative
    quantile error is bounded by the bucket width (~12% at 20 bins per
    decade).
    """

    __slots__ = ("lo_exp", "hi_exp", "bins_per_decade", "n_bins",
                 "_lo_bound")

    def __init__(self, lo_exp: int = -9, hi_exp: int = 9,
                 bins_per_decade: int = 20) -> None:
        if hi_exp <= lo_exp:
            raise ValueError("hi_exp must exceed lo_exp")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")
        self.lo_exp = lo_exp
        self.hi_exp = hi_exp
        self.bins_per_decade = bins_per_decade
        #: Bucket 0 is underflow; buckets 1..n cover the decades.
        self.n_bins = (hi_exp - lo_exp) * bins_per_decade + 1
        self._lo_bound = 10.0 ** lo_exp

    def index(self, value: float) -> int:
        """Bucket index of ``value`` (0 = underflow, clamped on top)."""
        if value <= self._lo_bound:
            return 0
        i = 1 + int((math.log10(value) - self.lo_exp)
                    * self.bins_per_decade)
        return min(max(i, 1), self.n_bins - 1)

    def lower(self, index: int) -> float:
        """Inclusive-ish lower edge of bucket ``index`` (0 for underflow)."""
        if index <= 0:
            return 0.0
        return 10.0 ** (self.lo_exp
                        + (index - 1) / self.bins_per_decade)

    def upper(self, index: int) -> float:
        """Upper edge of bucket ``index``."""
        if index <= 0:
            return self._lo_bound
        return 10.0 ** (self.lo_exp + index / self.bins_per_decade)


#: The process-wide bucket scheme (covers 1e-9 .. 1e9 at ~12% error).
LOG_BINS = LogBins()


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """Streaming distribution summary with bounded quantile buckets.

    Observations are folded into running aggregates (count/sum/min/max)
    plus fixed log-spaced bucket counts (:data:`LOG_BINS`), so a
    histogram on a hot path stays O(1) in memory yet answers
    :meth:`percentile` queries live -- p50/p99 no longer require
    holding every observation.  The bucket list is allocated lazily on
    the first observation, keeping registered-but-empty histograms as
    cheap as before.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.buckets: Optional[List[int]] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self.buckets is None:
            self.buckets = [0] * LOG_BINS.n_bins
        self.buckets[LOG_BINS.index(value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile estimate from the log buckets.

        Nearest-rank selection into the bucket containing the target
        rank, linearly interpolated within the bucket and clamped to
        the observed ``[min, max]`` range -- so ``percentile(0)`` is
        the minimum, ``percentile(100)`` the maximum, and a
        single-observation histogram returns that observation exactly.
        Relative error inside a bucket is bounded by the bucket width
        (~12%).  Returns 0.0 while empty.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.count or self.buckets is None:
            return 0.0
        if p == 0.0:
            return self.minimum
        rank = max(1, math.ceil(self.count * p / 100.0))
        cumulative = 0
        for index, bucket in enumerate(self.buckets):
            if not bucket:
                continue
            if cumulative + bucket >= rank:
                lower = LOG_BINS.lower(index)
                upper = LOG_BINS.upper(index)
                frac = (rank - cumulative) / bucket
                value = lower + frac * (upper - lower)
                return min(max(value, self.minimum), self.maximum)
            cumulative += bucket
        return self.maximum

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        if self.buckets is not None:
            for index in range(len(self.buckets)):
                self.buckets[index] = 0


Metric = Union[Counter, Histogram]


class MetricsRegistry:
    """Name -> metric map with get-or-create accessors.

    Names are dotted paths (``netsim.events``); a name keeps the type
    it was first created with (mixing types under one name raises).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def _get(self, name: str, kind: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> Dict[str, float]:
        """Flat ``{name: value}`` view (JSON-ready).

        A counter maps to one entry; a histogram expands
        into ``<name>.count`` / ``.sum`` / ``.min`` / ``.max`` /
        ``.mean`` plus log-bucket ``.p50`` / ``.p99`` estimates
        (min/max/percentiles omitted while empty; the pre-existing
        keys keep their exact values, so old snapshot consumers are
        unaffected).
        """
        out: Dict[str, float] = {}
        for name in self.names(prefix):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[f"{name}.count"] = metric.count
                out[f"{name}.sum"] = metric.total
                out[f"{name}.mean"] = metric.mean
                if metric.count:
                    out[f"{name}.min"] = metric.minimum
                    out[f"{name}.max"] = metric.maximum
                    out[f"{name}.p50"] = metric.percentile(50.0)
                    out[f"{name}.p99"] = metric.percentile(99.0)
            else:
                out[name] = metric.value
        return out

    def counters(self) -> Dict[str, int]:
        """``{name: value}`` for every counter, in name order.

        Counters are the one metric kind that sums across runs and
        processes; histograms are point-in-time state, so
        the bench ledger and the sweep runner's fork merge read this
        view rather than :meth:`snapshot`.
        """
        return {name: metric.value
                for name, metric in sorted(self._metrics.items())
                if isinstance(metric, Counter)}

    def reset(self, prefix: str = "") -> None:
        """Zero every metric under ``prefix`` in place (objects keep
        their identity, so cached references stay valid)."""
        for name in self.names(prefix):
            self._metrics[name].reset()

    def get(self, name: str) -> Optional[Metric]:
        """The metric registered under ``name`` (None when absent)."""
        return self._metrics.get(name)


#: The process-wide registry all layers write into.
METRICS = MetricsRegistry()
