"""Distributed gradient aggregation -- the paper's third domain.

The introduction motivates NetAgg with "deep learning frameworks"
[Dean et al., Large Scale Distributed Deep Networks] alongside search
and map/reduce: data-parallel training sums per-worker gradients every
step -- an associative, commutative, fixed-size aggregation, the ideal
on-path workload (α = 1/n_workers).

This module trains a real model (linear regression via full-batch
gradient descent) with gradients aggregated through any merge path --
centrally, via :func:`repro.aggbox.localtree.tree_aggregate`, or
through a live :class:`repro.core.platform.NetAggPlatform`.  The merge
is mathematically associative/commutative; different tree shapes only
reorder float additions, so trained weights agree to rounding error
(asserted to ~1e-9 by the tests) and the model's quality is identical.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import fsum, inf, isfinite, nan
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.aggbox.functions import AggregationFunction
from repro.wire.serializer import WireError, read_floats, read_varint, \
    write_floats, write_varint


class VectorSumFunction(AggregationFunction):
    """Element-wise sum of equal-length vectors (gradient aggregation)."""

    name = "vector-sum"

    def merge(self, items: Sequence[List[float]]) -> List[float]:
        """The column sums, under one float rule on every interpreter.

        Per column:

        - a float column merges to its correctly rounded sum (an int
          beside a float counts as ``float(int)``);
        - a column with a NaN, or with both infinities, gives some quiet
          NaN (which payload is left open);
        - a column of zeros gives +0.0, whatever their signs;
        - an integer column stays an exact integer.

        For one or two finite inputs this is exactly what ``sum()``
        returns on every CPython, and a served round merges only one or
        two (``tree_aggregate`` has fan-in 2).  A lone vector is ``0 +
        x`` per element.  Two are ``x + y``: one IEEE add is correctly
        rounded, and differs from the rule only where two -0.0s give
        -0.0, so each zero the adds produce (a jump per zero found, not
        a pass per element) becomes ``0 + z``.  Three or more (the flat
        ground truth) take ``fsum`` per float column, which is correctly
        rounded in any order, and answer its two refusals as the rule
        says.
        """
        vectors = [v for v in items if v]
        if not vectors:
            return []
        if len(vectors) == 1:
            return [0 + x for x in vectors[0]]
        length = len(vectors[0])
        for vector in vectors:
            if len(vector) != length:
                raise ValueError(
                    f"gradient length mismatch: {len(vector)} != {length}"
                )
        # zip and map alone would silently truncate ragged input, hence
        # the check above.
        if len(vectors) > 2:
            return list(map(_column_sum, zip(*vectors)))
        out = list(map(operator.add, *vectors))
        # index finds zeros of either sign; 0 + z is +0.0 for a float
        # zero and leaves an int 0 an int.
        i = -1
        try:
            while True:
                i = out.index(0.0, i + 1)
                out[i] = 0 + out[i]
        except ValueError:
            return out

    def output_bytes(self, input_sizes: Sequence[float]) -> float:
        # The aggregate is one vector, the size of any single input.
        return max(input_sizes) if input_sizes else 0.0


def _column_sum(column: Tuple[Any, ...]) -> Any:
    """One column of a three-or-more-input merge, under the float rule."""
    if isinstance(column[0], int) and all(isinstance(v, int)
                                          for v in column):
        return sum(column)
    try:
        return fsum(column)
    except ValueError:
        # +inf and -inf: fsum refuses, the rule says NaN.
        return nan
    except OverflowError:
        # A partial sum overflowed, though the total may not.  An
        # infinity or NaN beside it decides the column as above; else
        # sum exactly and round once.
        floats = [float(v) for v in column]
        specials = [v for v in floats if not isfinite(v)]
        if specials:
            return _column_sum(specials)
        # Imported here: fractions pulls in decimal, and only this rare
        # column needs it.
        from fractions import Fraction

        exact = sum(map(Fraction, floats))
        try:
            return float(exact)
        except OverflowError:
            return inf if exact > 0 else -inf


def encode_vector(vector: List[float]) -> bytes:
    return write_varint(len(vector)) + write_floats(vector)


def decode_vector(buffer: bytes) -> List[float]:
    count, offset = read_varint(buffer, 0)
    values, offset = read_floats(buffer, offset, count)
    if offset != len(buffer):
        raise WireError(f"{len(buffer) - offset} trailing bytes in vector")
    return values


@dataclass
class TrainResult:
    """Learned weights plus training diagnostics."""

    weights: List[float]
    losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("inf")


def make_regression_data(
    n_samples: int, weights: Sequence[float], noise: float = 0.0,
    seed: int = 1,
) -> List[Tuple[List[float], float]]:
    """Synthetic linear-regression rows: (features, target)."""
    import random

    rng = random.Random(seed)
    rows = []
    for _ in range(n_samples):
        x = [rng.uniform(-1.0, 1.0) for _ in weights]
        y = sum(w * xi for w, xi in zip(weights, x))
        if noise:
            y += rng.gauss(0.0, noise)
        rows.append((x, y))
    return rows


def local_gradient(weights: Sequence[float],
                   rows: Sequence[Tuple[List[float], float]]
                   ) -> List[float]:
    """Summed (not averaged) squared-error gradient over one shard."""
    grad = [0.0] * len(weights)
    for x, y in rows:
        error = sum(w * xi for w, xi in zip(weights, x)) - y
        for i, xi in enumerate(x):
            grad[i] += 2.0 * error * xi
    return grad


def mse(weights: Sequence[float],
        rows: Sequence[Tuple[List[float], float]]) -> float:
    total = 0.0
    for x, y in rows:
        error = sum(w * xi for w, xi in zip(weights, x)) - y
        total += error * error
    return total / len(rows)


#: An aggregator takes per-worker gradients and returns their sum.
GradientAggregator = Callable[[int, List[List[float]]], List[float]]


def train(
    shards: Sequence[Sequence[Tuple[List[float], float]]],
    n_features: int,
    aggregate: Optional[GradientAggregator] = None,
    learning_rate: float = 0.05,
    iterations: int = 50,
) -> TrainResult:
    """Full-batch gradient descent with pluggable gradient aggregation.

    ``aggregate(step, gradients) -> summed gradient`` is the data path
    under test: pass the NetAgg platform's request execution to train
    *through the network*.  Defaults to a local tree merge.
    """
    if not shards or not all(len(s) for s in shards):
        raise ValueError("every shard needs data")
    if iterations < 1 or learning_rate <= 0:
        raise ValueError("bad hyper-parameters")
    if aggregate is None:
        from repro.aggbox.localtree import tree_aggregate

        function = VectorSumFunction()

        def aggregate(_step: int, gradients: List[List[float]]
                      ) -> List[float]:
            return tree_aggregate(function, gradients)

    n_total = sum(len(s) for s in shards)
    weights = [0.0] * n_features
    losses: List[float] = []
    everything = [row for shard in shards for row in shard]
    for step in range(iterations):
        gradients = [local_gradient(weights, shard) for shard in shards]
        summed = aggregate(step, gradients)
        weights = [
            w - learning_rate * g / n_total
            for w, g in zip(weights, summed)
        ]
        losses.append(mse(weights, everything))
    return TrainResult(weights=weights, losses=losses)


def netagg_aggregator(platform, master: str,
                      worker_hosts: Sequence[str],
                      app: str = "mlgrad") -> GradientAggregator:
    """Gradient aggregation through a live NetAgg platform.

    Registers :class:`VectorSumFunction` if the app is not yet known;
    each training step becomes one aggregation request.
    """
    if app not in platform.apps():
        platform.register_app(app, VectorSumFunction(),
                              encode_vector, decode_vector)

    def aggregate(step: int, gradients: List[List[float]]) -> List[float]:
        if len(gradients) != len(worker_hosts):
            raise ValueError("one gradient per worker host required")
        outcome = platform.execute_request(
            app, f"grad-step-{step}", master,
            list(zip(worker_hosts, gradients)),
        )
        return outcome.value

    return aggregate
