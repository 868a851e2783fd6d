"""Unit helpers shared across the simulator, emulator and experiments.

Conventions used throughout the code base:

- data sizes are **bytes** (floats are allowed for scaled model sizes);
- link and processing capacities are **bytes per second**;
- time is **seconds** of virtual (simulated) time.

The constants below convert the units the paper talks about (Gbps links,
MB chunks, KB flows) into those base units.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: One kilobyte / megabyte / gigabyte in bytes (decimal, as in networking).
KB = 1_000.0
MB = 1_000_000.0
GB = 1_000_000_000.0

#: One kibibyte/mebibyte/gibibyte, for memory-flavoured sizes.
KiB = 1024.0
MiB = 1024.0**2
GiB = 1024.0**3


def Gbps(rate: float) -> float:
    """Convert gigabits per second into bytes per second."""
    return rate * 1e9 / 8.0


def to_gbps(bytes_per_second: float) -> float:
    """Convert bytes per second back into gigabits per second."""
    return bytes_per_second * 8.0 / 1e9


def percentile(values: Sequence[float], p: float) -> float:
    """Return the ``p``-th percentile of ``values`` (linear interpolation).

    ``p`` is in [0, 100].  The implementation matches numpy's default
    (``linear``) method so results are comparable with published numbers,
    while keeping the core library dependency-free.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[int(rank)]
    frac = rank - low
    value = ordered[low] * (1.0 - frac) + ordered[high] * frac
    # Interpolation rounding must never escape the data range.
    return min(max(value, ordered[0]), ordered[-1])


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (raises on empty input)."""
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    if count == 0:
        raise ValueError("mean of empty sequence")
    return total / count


#: Tolerance used when comparing virtual times / byte counts for equality.
EPSILON = 1e-9
