"""Differential oracle for the gradient codec and the vector merge.

``_frozen_merge`` (with ``_frozen_column_sum``), ``_frozen_encode`` and
``_frozen_decode`` are verbatim copies of ``VectorSumFunction.merge``,
``encode_vector`` and ``decode_vector`` as they stood when a gradient
on the box path was a Python ``list`` of ``float`` objects.  Only the
names differ.

Hypothesis draws 0-3 vectors of 0-64 elements.  A vector is all floats
(``±0.0``, ``±inf``, NaNs with any payload, signalling ones included,
subnormals and ordinary values) or mixed with ints and bools; it is
sized to one shared width unless drawn ragged.  Each vector reaches the
live code as a list, or, when it is all floats, in whatever form the
box path carries a decoded gradient (``carried``, the one adapter to
the code under test).  The frozen code always sees the list: where the
live code answered a list input differently, the old answer wins.

Both sides must agree on every merge, encoding and decoding: float
elements byte for byte (``write_float``, so NaN payloads count), int
elements in type and value, and a raised exception in type and message.
"""

from __future__ import annotations

import math
import operator
import struct
from math import fsum, inf, isfinite, nan
from typing import Any, List, Sequence, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.wire.serializer import (
    WireError,
    read_floats,
    read_varint,
    write_float,
    write_floats,
    write_varint,
)

# -- the live codec's API: the only lines that follow the code under test

from array import array

from repro.apps.mlgrad import (
    VectorSumFunction,
    decode_vector as live_decode,
    encode_vector as live_encode,
)


def carried(floats: Sequence[float]) -> Any:
    """An all-float vector as the box path carries a decoded gradient."""
    return array("d", floats)


# -- end of the adapter


def _frozen_merge(items: Sequence[List[float]]) -> List[float]:
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
        return list(map(_frozen_column_sum, zip(*vectors)))
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


def _frozen_column_sum(column: Tuple[Any, ...]) -> Any:
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
            return _frozen_column_sum(specials)
        # Imported here: fractions pulls in decimal, and only this rare
        # column needs it.
        from fractions import Fraction

        exact = sum(map(Fraction, floats))
        try:
            return float(exact)
        except OverflowError:
            return inf if exact > 0 else -inf


def _frozen_encode(vector: List[float]) -> bytes:
    return write_varint(len(vector)) + write_floats(vector)


def _frozen_decode(buffer: bytes) -> List[float]:
    count, offset = read_varint(buffer, 0)
    values, offset = read_floats(buffer, offset, count)
    if offset != len(buffer):
        raise WireError(f"{len(buffer) - offset} trailing bytes in vector")
    return values


# ---------------------------------------------------------------------------
# Drawing vectors


def _double(bits: int) -> float:
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


#: NaNs of either sign with any non-zero payload; a clear quiet bit
#: (bit 51) makes a signalling NaN, which ``0 + x`` quiets.
nans = st.builds(lambda sign, quiet, payload: _double(
    sign << 63 | 0x7FF << 52 | quiet << 51 | payload),
    st.integers(0, 1), st.integers(0, 1), st.integers(1, (1 << 51) - 1))

subnormals = st.builds(lambda sign, mantissa: _double(sign << 63 | mantissa),
                       st.integers(0, 1), st.integers(1, (1 << 52) - 1))

floats = st.one_of(
    st.sampled_from([0.0, -0.0, inf, -inf, nan, 5e-324, -5e-324, 1.0,
                     -1.0, 1e308, -1e308, 2.2250738585072014e-308]),
    nans, subnormals, st.floats())

mixed = st.one_of(floats, st.integers(), st.booleans())


@st.composite
def vector_sets(draw) -> List[Any]:
    """0-3 vectors, each a list or (all floats) in its carried form."""
    width = draw(st.integers(0, 64))
    vectors = []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(0, 64)) if draw(st.booleans()) else width
        elements = draw(st.sampled_from([floats, mixed]))
        values = draw(st.lists(elements, min_size=size, max_size=size))
        all_floats = all(type(v) is float for v in values)
        if all_floats and draw(st.booleans()):
            vectors.append(carried(values))
        else:
            vectors.append(values)
    return vectors


def outcome(call, *args) -> Tuple[str, Any]:
    try:
        return "value", call(*args)
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return "raised", (type(exc), str(exc))


def assert_same(frozen: Tuple[str, Any], live: Tuple[str, Any]) -> None:
    """Same exception, or the same elements: floats byte for byte, ints
    (and whatever else) in type and value."""
    assert frozen[0] == live[0], (frozen, live)
    if frozen[0] == "raised":
        assert frozen[1] == live[1]
        return
    old, new = frozen[1], live[1]
    if isinstance(old, bytes):
        assert new == old
        return
    assert len(new) == len(old)
    for a, b in zip(old, new):
        assert type(b) is type(a), (a, b)
        if type(a) is float:
            assert write_float(b) == write_float(a), (a, b)
        else:
            assert b == a


SIGNALLING = _double(0x7FF0_0000_0000_0001)


class TestMergeDifferential:
    @given(vector_sets())
    # Lone vectors: every special value, a signalling NaN among them;
    # a lone bool stays what 0 + True gives, the int 1.
    @example([carried([-0.0, 0.0, SIGNALLING, -inf, inf, 5e-324, -5e-324])])
    @example([[True, False, -0.0]])
    # Two carried vectors: a (-0.0, -0.0) column, a cancelling one and
    # a NaN meeting a signalling NaN.
    @example([carried([-0.0, 1.0, nan]), carried([-0.0, -1.0, SIGNALLING])])
    # A carried vector beside a list with ints.
    @example([carried([-0.0, 2.5]), [0, 3]])
    @example([carried([1.0, 2.0]), carried([1.0])])
    @example([carried([-0.0, inf]), [-0.0, -inf], carried([-0.0, 1.0])])
    @settings(max_examples=200)
    def test_merge_matches_the_list_merge(self, vectors):
        frozen = outcome(_frozen_merge, [list(v) for v in vectors])
        live = outcome(VectorSumFunction().merge, vectors)
        assert_same(frozen, live)

    def test_adapter_keeps_every_float(self):
        values = [-0.0, SIGNALLING, 5e-324, math.pi]
        assert write_floats(list(carried(values))) == write_floats(values)


class TestCodecDifferential:
    @given(vector_sets())
    @example([carried([-0.0, SIGNALLING, _double(0xFFF4_0000_0000_0ABC)])])
    @example([[True, 2**70, -3]])
    @example([[10**400]])
    @settings(max_examples=150)
    def test_encode_then_decode_match(self, vectors):
        for vector in vectors:
            frozen = outcome(_frozen_encode, list(vector))
            live = outcome(live_encode, vector)
            assert_same(frozen, live)
            if frozen[0] == "value":
                assert_same(outcome(_frozen_decode, frozen[1]),
                             outcome(live_decode, frozen[1]))

    @given(st.one_of(
        st.binary(max_size=80),
        st.builds(lambda count, body: write_varint(count) + body,
                  st.integers(0, 12), st.binary(max_size=96))))
    @example(b"")
    @example(b"\x80\x00")
    @example(b"\x02" + bytes(16) + b"x")
    @example(write_varint(2**60) + bytes(16))
    @settings(max_examples=300)
    def test_decode_matches_on_any_bytes(self, buffer):
        assert_same(outcome(_frozen_decode, buffer),
                    outcome(live_decode, buffer))

