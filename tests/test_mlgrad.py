"""Tests for distributed gradient aggregation (the third domain app)."""

import math
import struct
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggbox.localtree import tree_aggregate
from repro.aggregation import deploy_boxes
from repro.apps.mlgrad import (
    VectorSumFunction,
    decode_vector,
    encode_vector,
    local_gradient,
    make_regression_data,
    netagg_aggregator,
    train,
)
from repro.core import NetAggPlatform
from repro.topology import ThreeTierParams, three_tier
from repro.wire import WireError, write_float, write_floats, write_varint

TRUE_WEIGHTS = [2.0, -1.0, 0.5]
SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
WORKER_HOSTS = ["host:1", "host:4", "host:8", "host:12"]


def rule_column(column):
    """One column merged under ``VectorSumFunction.merge``'s float rule.

    Ints alone sum exactly.  Otherwise every value counts as a float:
    a NaN, or both infinities, give NaN; one infinity gives itself; a
    finite column gives its exact (``Fraction``) sum correctly rounded,
    which is +0.0 when the sum is zero and an infinity past the largest
    float.
    """
    if all(isinstance(v, int) for v in column):
        return sum(column)
    floats = [float(v) for v in column]
    infinities = {v for v in floats if math.isinf(v)}
    if any(map(math.isnan, floats)) or len(infinities) == 2:
        return math.nan
    if infinities:
        return infinities.pop()
    exact = sum(map(Fraction, floats))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def rule_merge(items):
    vectors = [v for v in items if v]
    return [rule_column(column) for column in zip(*vectors)]


def pinned(value):
    """What the rule pins of a merged element: a quiet NaN's NaN-ness
    (not its payload), an int's exact value, any other float's bytes."""
    if isinstance(value, int):
        return ("int", value)
    if math.isnan(value):
        return ("quiet nan", bool(write_float(value)[1] & 0x08))
    return write_float(value)


def _nan(payload):
    return struct.unpack(">d", struct.pack(">Q", 0x7FF8_0000_0000_0000
                                           | payload))[0]


#: A served gradient (``_gradient`` in ``repro.serve.service``: worker
#: 0 of seed 0, 1,024 dims) and its pair with every third column
#: negated, so those columns cancel to exactly 0.0.
SERVED = [((7 * j) % 1999 - 999) / 999.0 for j in range(1024)]
CANCELLING = [-v if j % 3 == 0 else v for j, v in enumerate(SERVED)]


def make_shards(n=400, noise=0.0, seed=3):
    rows = make_regression_data(n, TRUE_WEIGHTS, noise=noise, seed=seed)
    return [rows[i::4] for i in range(4)]


class TestVectorSum:
    def test_merge_sums_elementwise(self):
        fn = VectorSumFunction()
        assert fn.merge([[1.0, 2.0], [3.0, 4.0]]) == [4.0, 6.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VectorSumFunction().merge([[1.0], [1.0, 2.0]])

    def test_empty(self):
        assert VectorSumFunction().merge([]) == []

    def test_tree_merge_close_to_flat(self):
        fn = VectorSumFunction()
        vectors = [[float(i), float(-i)] for i in range(9)]
        flat = fn.merge(vectors)
        tree = tree_aggregate(fn, vectors)
        assert tree == pytest.approx(flat)

    def test_codec_roundtrip(self):
        vector = [0.5, -1.25, 3e9, 0.0]
        decoded = decode_vector(encode_vector(vector))
        assert list(decoded) == vector
        assert (type(decoded), decoded.typecode) == (array, "d")

    @given(st.integers(0, 64).flatmap(lambda width: st.lists(
        st.one_of(st.just([]),
                  st.lists(st.floats(), min_size=width, max_size=width)),
        max_size=9)))
    @example([[math.inf, -0.0, 5e-324, math.nan], [],
              [-math.inf, -0.0, -5e-324, 1.0]])
    # One vector: the single-input path, every special value at once.
    @example([[-0.0, math.nan, math.inf, -math.inf, 5e-324]])
    # A (-0.0, -0.0) column, and one that cancels to zero.
    @example([[-0.0, 1.0], [-0.0, -1.0]])
    # A served-shape pair, a third of its columns cancelling to 0.0.
    @example([SERVED, CANCELLING])
    # Two NaNs with different payloads: the rule keeps neither.
    @example([[_nan(1), 1.0], [_nan(2), 2.0]])
    # Integer vectors stay exact integers.
    @example([[1, 2**70, -3], [4, 5, 3]])
    @example([[1, 2**70, -3], [4, 5, 3], [2**64, 0, 1.5]])
    # Three inputs: zeros, both infinities (fsum raises), a finite total
    # past an overflowing partial sum (fsum raises), an overflowing total
    # and an infinity beside an overflowing partial sum.
    @example([[-0.0, math.inf, 1e308, 1e308, math.inf],
              [-0.0, -math.inf, 1e308, 1e308, 1e308],
              [-0.0, 1.0, -1e308, 1e308, 1e308]])
    @settings(max_examples=200)
    def test_merge_follows_the_float_rule(self, vectors):
        merged = VectorSumFunction().merge(vectors)
        assert list(map(pinned, merged)) == \
            list(map(pinned, rule_merge(vectors)))

    def test_single_input_keeps_ints(self):
        merged = VectorSumFunction().merge([[1, 2]])
        assert merged == [1, 2]
        assert all(type(x) is int for x in merged)

    @given(st.lists(st.lists(st.floats(), min_size=1, max_size=6),
                    min_size=2, max_size=6))
    @settings(max_examples=100)
    def test_ragged_input_never_truncates(self, vectors):
        if len({len(v) for v in vectors}) == 1:
            vectors[-1] = vectors[-1] + [1.0]
        with pytest.raises(ValueError, match="gradient length mismatch"):
            VectorSumFunction().merge(vectors)

    def test_encoding_is_a_count_then_scalar_doubles(self):
        vector = [0.0, -0.0, math.inf, math.nan, 5e-324, -1.5]
        expected = write_varint(len(vector)) + \
            b"".join(write_float(v) for v in vector)
        assert encode_vector(vector) == expected
        assert write_floats(decode_vector(expected)) == write_floats(vector)
        assert encode_vector([]) == b"\x00"
        assert list(decode_vector(b"\x00")) == []

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireError, match="3 trailing bytes"):
            decode_vector(encode_vector([1.0, 2.0]) + b"abc")

    @pytest.mark.parametrize("count", [3, 2**31, 2**60])
    def test_declared_count_beyond_buffer(self, count):
        """A hostile count fails before anything is sized by it."""
        buffer = write_varint(count) + write_float(1.0) + write_float(2.0)
        with pytest.raises(WireError, match="truncated float"):
            decode_vector(buffer)

    @given(st.one_of(
        st.binary(max_size=80),
        st.builds(lambda count, body: write_varint(count) + body,
                  st.integers(0, 12), st.binary(max_size=96))))
    # A signalling NaN, a negative NaN with a payload and -0.0.
    @example(write_varint(3) + bytes.fromhex(
        "7ff0000000000001" "fff4000000000abc" "8000000000000000"))
    @example(b"\x80\x00")
    @settings(max_examples=300)
    def test_decode_is_total(self, buffer):
        """Any bytes decode to a vector that encodes back to them,
        NaN payloads included, or raise ``WireError``: nothing else."""
        try:
            vector = decode_vector(buffer)
        except WireError:
            return
        assert encode_vector(vector) == buffer


class TestTraining:
    def test_learns_true_weights(self):
        result = train(make_shards(), n_features=3, iterations=200,
                       learning_rate=0.1)
        for learned, true in zip(result.weights, TRUE_WEIGHTS):
            assert learned == pytest.approx(true, abs=1e-3)

    def test_loss_decreases(self):
        result = train(make_shards(noise=0.05), n_features=3,
                       iterations=50)
        assert result.losses[-1] < result.losses[0] / 10

    def test_gradient_matches_analytic(self):
        rows = [([1.0, 0.0], 3.0)]
        grad = local_gradient([0.0, 0.0], rows)
        # d/dw of (w.x - y)^2 at w=0: 2 * (-3) * x = [-6, 0].
        assert grad == pytest.approx([-6.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            train([], n_features=3)
        with pytest.raises(ValueError):
            train(make_shards(), n_features=3, iterations=0)


class TestOnPathTraining:
    def make_platform(self):
        topo = three_tier(SMALL)
        deploy_boxes(topo)
        return NetAggPlatform(topo)

    def test_netagg_training_matches_central(self):
        shards = make_shards(noise=0.02)
        central = train(shards, n_features=3, iterations=30)

        platform = self.make_platform()
        aggregate = netagg_aggregator(platform, "host:0", WORKER_HOSTS)
        on_path = train(shards, n_features=3, iterations=30,
                        aggregate=aggregate)
        for a, b in zip(central.weights, on_path.weights):
            assert a == pytest.approx(b, abs=1e-9)
        assert on_path.final_loss == pytest.approx(central.final_loss,
                                                   rel=1e-6)

    def test_every_step_is_one_request(self):
        platform = self.make_platform()
        # Box state ends with its request; the outcomes outlive it.
        outcomes = []
        execute = platform.execute_request

        def recording(*args, **kwargs):
            outcomes.append(execute(*args, **kwargs))
            return outcomes[-1]

        platform.execute_request = recording
        aggregate = netagg_aggregator(platform, "host:0", WORKER_HOSTS)
        train(make_shards(), n_features=3, iterations=5,
              aggregate=aggregate)
        # Five steps -> five distinct requests, each merged on boxes.
        assert [o.request_id for o in outcomes] == \
            [f"grad-step-{step}" for step in range(5)]
        assert all(o.boxes_used for o in outcomes)

    def test_boxes_release_drained_reassemblers(self):
        platform = self.make_platform()
        aggregate = netagg_aggregator(platform, "host:0", WORKER_HOSTS)
        wide = [[float(i + w) for i in range(1024)] for w in range(4)]
        for step in range(6):
            assert aggregate(step, wide) == \
                [4.0 * i + 6.0 for i in range(1024)]
        for info in platform.topology.all_boxes():
            assert platform.box_runtime(info.box_id).partial_streams() == []

    def test_gradient_count_must_match_workers(self):
        platform = self.make_platform()
        aggregate = netagg_aggregator(platform, "host:0", WORKER_HOSTS)
        with pytest.raises(ValueError):
            aggregate(0, [[1.0]])
