"""Tests for the binary wire format."""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.wire import (
    ChunkReassembler,
    KeyValue,
    SearchResult,
    WireError,
    decode_kv_stream,
    decode_search_results,
    encode_kv_stream,
    encode_search_results,
    frame,
    unframe_all,
)
from repro.wire.serializer import (
    WireTruncated,
    read_bytes,
    read_float,
    read_floats,
    read_signed,
    read_string,
    read_varint,
    write_bytes,
    write_float,
    write_floats,
    write_signed,
    write_string,
    write_varint,
)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**60])
    def test_roundtrip(self, value):
        encoded = write_varint(value)
        decoded, offset = read_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_single_byte_for_small_values(self):
        assert len(write_varint(127)) == 1
        assert len(write_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(WireError):
            write_varint(-1)

    def test_truncated_raises(self):
        encoded = write_varint(300)
        with pytest.raises(WireError):
            read_varint(encoded[:1])

    def test_empty_raises(self):
        with pytest.raises(WireError):
            read_varint(b"")

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=200)
    def test_roundtrip_property(self, value):
        decoded, _ = read_varint(write_varint(value))
        assert decoded == value

    @pytest.mark.parametrize("padded", [b"\x80\x00", b"\x81\x00",
                                        b"\xff\x80\x00",
                                        b"\x80" * 9 + b"\x00"])
    def test_padded_encodings_rejected(self, padded):
        """One value, one encoding: ``80 00`` is a two-byte zero."""
        with pytest.raises(WireError, match="overlong varint"):
            read_varint(padded)
        assert read_varint(b"\x00") == (0, 1)

    def test_truncation_is_its_own_error_type(self):
        with pytest.raises(WireTruncated):
            read_varint(b"\x80")
        with pytest.raises(WireError) as err:
            read_varint(b"\xff" * 10)
        assert not isinstance(err.value, WireTruncated)


class TestTheEncoderRefusesWhatTheDecoderRefuses:
    @given(st.one_of(st.integers(0, 2**70 + 2**20),
                     st.sampled_from([2**63, 2**64, 2**70 - 1, 2**70,
                                      2**77, 2**700])))
    @settings(max_examples=300)
    def test_whatever_is_written_reads_back(self, value):
        try:
            encoded = write_varint(value)
        except WireError as err:
            assert value >= 2**70
            assert str(err) == (f"varint cannot encode {value}: it needs "
                                f"more than 10 bytes")
            return
        assert value < 2**70 and len(encoded) <= 10
        assert read_varint(encoded) == (value, len(encoded))

    def test_the_batch_and_record_encoders_refuse_it_too(self):
        wide = SearchResult(2**70, 0.5)
        for encode in (wide.encode, lambda: encode_search_results([wide]),
                       lambda: encode_kv_stream([KeyValue("k", 2**70)])):
            with pytest.raises(WireError, match="needs more than 10 bytes"):
                encode()


def _frozen_read_varint(buffer, offset=0):
    """``read_varint`` as it stood before its one-byte fast path: the
    reference the live one is held against, copied here on purpose."""
    result = 0
    shift = 0
    for i in range(10):
        if offset + i >= len(buffer):
            raise WireTruncated("truncated varint")
        byte = buffer[offset + i]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if not byte and i:
                raise WireError("overlong varint")
            return result, offset + i + 1
        shift += 7
    raise WireError("varint longer than 10 bytes")


def _outcome(call, *args):
    """What a decoder did: its value, or the exact type and text it
    raised."""
    try:
        return call(*args)
    except WireError as err:
        return type(err), str(err)


def _raw_varint(value: int) -> bytes:
    """The varint bytes of ``value`` with no width limit (the encoder
    refuses what the decoder cannot read back)."""
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


class TestReadVarintMatchesItsFrozenCopy:
    _VALUES = st.one_of(
        st.sampled_from([0, 1, 127, 128, 16_383, 16_384, 2**63,
                         2**64 - 1, 2**70 - 1]),
        st.integers(0, 2**70 - 1))

    @given(_VALUES, st.binary(max_size=3), st.binary(max_size=3),
           st.integers(0, 12))
    @settings(max_examples=400)
    def test_values_at_any_offset_and_every_truncation(self, value, lead,
                                                       tail, cut):
        encoded = _raw_varint(value)
        buffer = lead + encoded + tail
        assert read_varint(buffer, len(lead)) \
            == (value, len(lead) + len(encoded))
        for data in (buffer, lead + encoded[:cut], lead + encoded[:cut] + tail):
            for view in (data, bytearray(data), memoryview(data)):
                assert _outcome(read_varint, view, len(lead)) \
                    == _outcome(_frozen_read_varint, view, len(lead))

    @given(st.binary(max_size=14), st.integers(0, 16))
    @example(b"", 0)
    @example(b"\x05", 1)               # offset == len(buffer)
    @example(b"\x05", 7)               # offset past the end
    @example(b"\x80", 0)
    @example(b"\x80\x00", 0)           # a padded zero
    @example(b"\xff\x80\x00", 0)
    @example(b"\x80" * 9 + b"\x00", 0)
    @example(b"\x80" * 9 + b"\x01", 0)  # 2**63, ten bytes
    @example(b"\xff" * 10, 0)
    @example(b"\xff" * 11, 0)
    @example(b"\xff" * 9 + b"\x7f", 0)  # 2**70 - 1
    @settings(max_examples=600)
    def test_any_bytes_any_offset(self, data, offset):
        assert _outcome(read_varint, data, offset) \
            == _outcome(_frozen_read_varint, data, offset)

    def test_the_named_outcomes(self):
        for data, offset in ((b"", 0), (b"\x05", 1), (b"\x80", 0)):
            assert _outcome(read_varint, data, offset) \
                == (WireTruncated, "truncated varint")
        assert _outcome(read_varint, b"\x81\x00") \
            == (WireError, "overlong varint")
        assert _outcome(read_varint, b"\xff" * 11) \
            == (WireError, "varint longer than 10 bytes")
        assert read_varint(b"\xff" * 9 + b"\x7f") == (2**70 - 1, 10)


class TestSigned:
    @given(st.integers(-(2**62), 2**62))
    @settings(max_examples=200)
    def test_roundtrip(self, value):
        decoded, _ = read_signed(write_signed(value))
        assert decoded == value

    def test_zigzag_compactness(self):
        # Small magnitudes (either sign) stay in one byte.
        assert len(write_signed(-1)) == 1
        assert len(write_signed(63)) == 1


class TestScalars:
    @given(st.text(max_size=200))
    @settings(max_examples=100)
    def test_string_roundtrip(self, text):
        decoded, _ = read_string(write_string(text))
        assert decoded == text

    @given(st.binary(max_size=200))
    @settings(max_examples=100)
    def test_bytes_roundtrip(self, blob):
        decoded, _ = read_bytes(write_bytes(blob))
        assert decoded == blob

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=100)
    def test_float_roundtrip(self, value):
        decoded, _ = read_float(write_float(value))
        assert decoded == value

    def test_truncated_string(self):
        encoded = write_string("hello")
        with pytest.raises(WireError):
            read_string(encoded[:-1])

    def test_invalid_utf8(self):
        bad = write_bytes(b"\xff\xfe")
        with pytest.raises(WireError):
            read_string(bad)


#: Every double hypothesis can draw, with the awkward ones made likely.
_DOUBLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                     5e-324, -5e-324, 2.2250738585072014e-308]),
)


class TestFloatRuns:
    """``write_floats``/``read_floats`` against the scalar codec."""

    @given(st.lists(_DOUBLES, max_size=2048))
    @settings(max_examples=100)
    def test_batch_bytes_equal_per_element_bytes(self, values):
        expected = b"".join(write_float(v) for v in values)
        assert write_floats(values) == expected

    @given(st.lists(_DOUBLES, max_size=2048), st.binary(max_size=9))
    @settings(max_examples=100)
    def test_batch_read_equals_per_element_read(self, values, lead):
        # The run sits at a non-zero offset, followed by one more byte.
        buffer = lead + b"".join(write_float(v) for v in values) + b"\x7f"
        expected, offset = [], len(lead)
        for _ in values:
            value, offset = read_float(buffer, offset)
            expected.append(value)
        decoded, end = read_floats(buffer, len(lead), len(values))
        assert end == offset == len(buffer) - 1
        # Compare bit patterns: NaN != NaN and 0.0 == -0.0 as floats.
        assert write_floats(decoded) == write_floats(expected)

    @pytest.mark.parametrize("length", [1, 255, 1024, 2048])
    def test_long_runs(self, length):
        import random

        rng = random.Random(length)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]
        values = [rng.choice(specials) if rng.random() < 0.1
                  else rng.uniform(-1e300, 1e300) for _ in range(length)]
        raw = b"".join(write_float(v) for v in values)
        assert write_floats(values) == raw
        decoded, end = read_floats(raw, 0, length)
        assert end == 8 * length
        assert write_floats(decoded) == raw

    def test_empty_run(self):
        assert write_floats([]) == b""
        assert read_floats(b"", 0, 0) == ([], 0)

    def test_reads_any_buffer_type(self):
        raw = write_floats([1.5, -2.0])
        for buffer in (bytearray(raw), memoryview(raw)):
            assert read_floats(buffer, 0, 2) == ([1.5, -2.0], 16)
            assert read_float(buffer, 8) == (-2.0, 16)

    @pytest.mark.parametrize("count", [3, 2**31, 2**60])
    def test_count_beyond_buffer_is_truncation(self, count):
        buffer = write_floats([1.0, 2.0]) + b"\x00" * 7
        with pytest.raises(WireError, match="truncated float"):
            read_floats(buffer, 0, count)

    def test_scalar_truncation(self):
        with pytest.raises(WireError, match="truncated float"):
            read_float(write_float(1.0)[:7])
        with pytest.raises(WireError, match="truncated float"):
            read_float(write_float(1.0), 1)


#: Payloads whose length prefix is two or three bytes (> 127 B,
#: > 16 KiB), built by repetition so hypothesis draws only a few bytes.
_LONG_PAYLOADS = st.builds(
    lambda unit, length: (unit * length)[:length],
    st.binary(min_size=1, max_size=4),
    st.sampled_from([128, 129, 1000, 16_383, 16_384, 17_001]),
)


class TestFraming:
    def test_frame_roundtrip(self):
        frames = unframe_all(frame(b"abc") + frame(b"") + frame(b"xy"))
        assert frames == [b"abc", b"", b"xy"]

    def test_trailing_junk_rejected(self):
        with pytest.raises(WireError):
            unframe_all(frame(b"abc") + b"\x05ab")

    @given(st.lists(st.one_of(st.binary(max_size=100), _LONG_PAYLOADS),
                    max_size=10),
           st.integers(1, 17))
    @settings(max_examples=100)
    def test_reassembly_any_chunking(self, payloads, chunk_size):
        stream = b"".join(frame(p) for p in payloads)
        reassembler = ChunkReassembler()
        out = []
        for i in range(0, len(stream), chunk_size):
            out.extend(reassembler.feed(stream[i:i + chunk_size]))
        assert out == payloads
        reassembler.finish()  # must end on a boundary

    @pytest.mark.parametrize("length", [127, 128, 300, 16_383, 16_384,
                                        20_000])
    def test_reassembly_byte_by_byte(self, length):
        """Every split of a one-, two- and three-byte prefix."""
        payload = (bytes(range(256)) * (length // 256 + 1))[:length]
        stream = frame(payload) + frame(b"") + frame(b"tail")
        reassembler = ChunkReassembler()
        out = []
        for i in range(len(stream)):
            out.extend(reassembler.feed(stream[i:i + 1]))
        assert out == [payload, b"", b"tail"]
        assert reassembler.frames_emitted == 3
        assert reassembler.bytes_consumed == len(stream)
        reassembler.finish()

    def test_prefix_parsed_a_constant_number_of_times(self, monkeypatch):
        """Reassembly is linear: a frame's prefix is not re-read per chunk."""
        from repro.wire import framing

        calls = []

        def counting_read_varint(buffer, offset=0):
            calls.append(offset)
            return read_varint(buffer, offset)

        monkeypatch.setattr(framing, "read_varint", counting_read_varint)
        payload = bytes(256 * 1024)
        stream = frame(payload)
        reassembler = ChunkReassembler()
        out = []
        for i in range(0, len(stream), 256):
            out.extend(reassembler.feed(stream[i:i + 256]))
        assert out == [payload]
        assert len(calls) <= 2

    def test_frames_after_a_held_frame_are_still_emitted(self):
        big, small = bytes(range(200)), b"xy"
        stream = frame(big) + frame(small) + frame(big)[:50]
        reassembler = ChunkReassembler()
        assert reassembler.feed(stream[:10]) == []
        assert reassembler.feed(stream[10:]) == [big, small]
        assert reassembler.pending_bytes == 50
        assert reassembler.feed(frame(big)[50:]) == [big]
        reassembler.finish()

    def test_malformed_prefix_raises_instead_of_buffering(self):
        """Ten prefix bytes without a terminator can never become a
        frame: waiting for more would buffer the stream forever."""
        reassembler = ChunkReassembler()
        assert reassembler.feed(b"\xff" * 9) == []     # could still end
        with pytest.raises(WireError, match="longer than 10 bytes"):
            reassembler.feed(b"\xff")
        reassembler = ChunkReassembler()
        with pytest.raises(WireError, match="longer than 10 bytes"):
            reassembler.feed(b"\xff" * 11)
        with pytest.raises(WireError, match="longer than 10 bytes"):
            unframe_all(b"\xff" * 11)

    def test_frames_ahead_of_a_malformed_prefix_are_delivered(self):
        """A whole frame sharing a chunk with the poison is not lost: it
        is returned, and the feed that finds the poison at the head of
        the buffer raises -- as if the frame had come one chunk earlier."""
        reassembler = ChunkReassembler()
        assert reassembler.feed(
            frame(b"ok") + frame(b"") + b"\xff" * 11) == [b"ok", b""]
        assert reassembler.frames_emitted == 2
        assert reassembler.pending_bytes == 11
        with pytest.raises(WireError, match="longer than 10 bytes"):
            reassembler.feed(b"")
        with pytest.raises(WireError, match="trailing bytes"):
            unframe_all(frame(b"ok") + b"\x80" * 10 + b"\x01")

    def test_padded_prefix_raises(self):
        reassembler = ChunkReassembler()
        assert reassembler.feed(b"\x83") == []
        with pytest.raises(WireError, match="overlong varint"):
            reassembler.feed(b"\x00abc")

    def test_finish_mid_frame_raises(self):
        reassembler = ChunkReassembler()
        reassembler.feed(frame(b"abcdef")[:3])
        with pytest.raises(WireError):
            reassembler.finish()

    def test_counters(self):
        reassembler = ChunkReassembler()
        data = frame(b"abc")
        reassembler.feed(data[:2])
        assert reassembler.frames_emitted == 0
        assert reassembler.pending_bytes == 2
        reassembler.feed(data[2:])
        assert reassembler.frames_emitted == 1
        assert reassembler.bytes_consumed == len(data)
        assert reassembler.pending_bytes == 0


class TestRecords:
    def test_kv_roundtrip(self):
        pairs = [KeyValue("alpha", 3), KeyValue("beta", 2**40)]
        assert decode_kv_stream(encode_kv_stream(pairs)) == pairs

    def test_kv_empty(self):
        assert decode_kv_stream(encode_kv_stream([])) == []

    def test_kv_trailing_bytes_rejected(self):
        encoded = encode_kv_stream([KeyValue("a", 1)]) + b"\x00"
        with pytest.raises(WireError):
            decode_kv_stream(encoded)

    def test_search_result_roundtrip(self):
        results = [
            SearchResult(1, 0.5, "snippet one"),
            SearchResult(99, -2.25, ""),
        ]
        assert decode_search_results(encode_search_results(results)) == results

    @given(st.lists(
        st.tuples(st.text(max_size=20), st.integers(0, 2**40)),
        max_size=30,
    ))
    @settings(max_examples=100)
    def test_kv_roundtrip_property(self, rows):
        pairs = [KeyValue(k, v) for k, v in rows]
        assert decode_kv_stream(encode_kv_stream(pairs)) == pairs

    def test_kv_ordering(self):
        assert KeyValue("a", 1) < KeyValue("b", 0)


class TestSearchResultContract:
    """What callers rely on from the record type, whatever it is built
    from."""

    def test_construction(self):
        by_keyword = SearchResult(doc_id=7, score=0.25)   # perf/serve.py's
        assert by_keyword == SearchResult(7, 0.25) == SearchResult(7, 0.25,
                                                                   "")
        assert by_keyword.snippet == ""
        full = SearchResult(score=1.5, snippet="s", doc_id=9)
        assert (full.doc_id, full.score, full.snippet) == (9, 1.5, "s")
        with pytest.raises(TypeError):
            SearchResult(1)
        with pytest.raises(TypeError):
            SearchResult(1, 0.5, "s", "extra")

    def test_immutable(self):
        result = SearchResult(1, 0.5, "s")
        for field in ("doc_id", "score", "snippet"):
            with pytest.raises(AttributeError):
                setattr(result, field, 2)
        with pytest.raises(AttributeError):
            result.rank = 1

    def test_equality_and_hash_by_value(self):
        a, b = SearchResult(1, 0.5, "s"), SearchResult(1, 0.5, "s")
        assert a == b and hash(a) == hash(b) and a is not b
        assert len({a, b, SearchResult(1, 0.5)}) == 2
        for other in (SearchResult(2, 0.5, "s"), SearchResult(1, 0.75, "s"),
                      SearchResult(1, 0.5, "t")):
            assert a != other

    def test_top_k_key_input(self):
        import heapq

        results = [SearchResult(3, 0.5), SearchResult(1, 0.5),
                   SearchResult(2, 0.9, "best")]
        best = heapq.nlargest(2, results,
                              key=lambda r: (r.score, -r.doc_id))
        assert best == [SearchResult(2, 0.9, "best"), SearchResult(1, 0.5)]

    def test_record_codec_methods(self):
        result = SearchResult(300, -0.0, "é")
        encoded = result.encode()
        assert encoded == (write_varint(300) + write_float(-0.0)
                           + write_string("é"))
        decoded, offset = SearchResult.decode(b"\x00" + encoded, 1)
        assert _bits([decoded]) == _bits([result])
        assert offset == 1 + len(encoded)
        assert type(decoded) is SearchResult


# -- batch codecs vs the per-record API ---------------------------------------

#: Scores as raw 64-bit patterns, so NaN payloads, both zeros, both
#: infinities and subnormals all occur and survive bit for bit.
_SCORE_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([
        0x0000000000000000, 0x8000000000000000,   # +0.0, -0.0
        0x7FF0000000000000, 0xFFF0000000000000,   # +inf, -inf
        0x7FF8000000000001, 0xFFF80000DEADBEEF,   # quiet NaNs, payloads
        0x7FF0000000000001,                       # signalling NaN
        0x0000000000000001, 0x800FFFFFFFFFFFFF,   # subnormals
    ]),
)
_DOC_IDS = st.one_of(st.integers(0, 2**63), st.integers(0, 300),
                     st.sampled_from([127, 128, 16_383, 16_384, 2**63]))
#: Multi-byte UTF-8 (2-, 3- and 4-byte code points), and long enough
#: that the length prefix needs two bytes (> 127 encoded bytes).
_WIDE = "aé√\U0001d11e \U0010ffff"
_SNIPPETS = st.one_of(
    st.just(""),
    st.text(max_size=12),
    st.text(alphabet=_WIDE, min_size=40, max_size=90),
)


def _score(bits: int) -> float:
    return struct.unpack(">d", bits.to_bytes(8, "big"))[0]


def _search_results(max_size):
    return st.lists(
        st.builds(lambda doc, bits, text: SearchResult(doc, _score(bits),
                                                       text),
                  _DOC_IDS, _SCORE_BITS, _SNIPPETS),
        max_size=max_size)


def _key_values(max_size):
    return st.lists(st.builds(KeyValue, _SNIPPETS, _DOC_IDS),
                    max_size=max_size)


def _per_record_encode(records) -> bytes:
    return write_varint(len(records)) + b"".join(r.encode() for r in records)


def _per_record_decode(cls, buffer: bytes):
    """The per-record loop over the scalar readers: what a batch decoder
    must agree with on every input, in value or in the exact error."""
    count, offset = read_varint(buffer, 0)
    out = []
    for _ in range(count):
        record, offset = cls.decode(buffer, offset)
        out.append(record)
    if offset != len(buffer):
        batch = "result" if cls is SearchResult else "kv"
        raise WireError(
            f"{len(buffer) - offset} trailing bytes in {batch} batch")
    return out


def _bits(results):
    """Search results with the score as its bit pattern (NaN != NaN)."""
    return [(r.doc_id, struct.pack(">d", r.score), r.snippet)
            for r in results]


def _reference_decode_search_results(buffer):
    return _per_record_decode(SearchResult, buffer)


def _decode_outcome(decode, buffer):
    outcome = _outcome(decode, buffer)
    return _bits(outcome) if isinstance(outcome, list) else outcome


class TestBatchCodecsMatchPerRecordCodecs:
    @given(_search_results(max_size=40))
    @settings(max_examples=200)
    def test_search_results(self, results):
        encoded = encode_search_results(results)
        assert encoded == _per_record_encode(results)
        decoded = decode_search_results(encoded)
        assert _bits(decoded) == _bits(results)
        assert _bits(decoded) == _bits(_per_record_decode(SearchResult,
                                                          encoded))

    @given(_key_values(max_size=40))
    @settings(max_examples=200)
    def test_kv_stream(self, pairs):
        encoded = encode_kv_stream(pairs)
        assert encoded == _per_record_encode(pairs)
        assert decode_kv_stream(encoded) == pairs
        assert decode_kv_stream(encoded) == _per_record_decode(KeyValue,
                                                               encoded)

    @pytest.mark.parametrize("count", [0, 1, 127, 128, 300])
    def test_counts_across_the_prefix_width(self, count):
        results = [SearchResult(2**63 - i, _score(0x7FF8000000000000 + i),
                                "√" * (i % 70))
                   for i in range(count)]
        encoded = encode_search_results(results)
        assert encoded == _per_record_encode(results)
        assert _bits(decode_search_results(encoded)) == _bits(results)
        pairs = [KeyValue("é" * (i % 70), 2**63 - i)
                 for i in range(count)]
        encoded = encode_kv_stream(pairs)
        assert encoded == _per_record_encode(pairs)
        assert decode_kv_stream(encoded) == pairs

    def test_any_buffer_type_decodes(self):
        results = [SearchResult(7, 0.25, "snip"), SearchResult(2**40, -0.0)]
        encoded = encode_search_results(results)
        for view in (bytearray(encoded), memoryview(encoded)):
            assert _bits(decode_search_results(view)) == _bits(results)
        pairs = [KeyValue("k", 1), KeyValue("", 2**50)]
        encoded = encode_kv_stream(pairs)
        for view in (bytearray(encoded), memoryview(encoded)):
            assert decode_kv_stream(view) == pairs

    @pytest.mark.parametrize("encode, record, bad, text", [
        (encode_search_results, SearchResult(1, 0.5, "ab"),
         SearchResult(-1, 0.5), "varint cannot encode negative value -1"),
        (encode_kv_stream, KeyValue("ab", 1),
         KeyValue("ab", -7), "varint cannot encode negative value -7"),
    ])
    def test_negative_values_refused_with_the_varint_message(
            self, encode, record, bad, text):
        with pytest.raises(WireError, match=text):
            encode([record, bad])

    @pytest.mark.parametrize("decode, encode, records, trailing", [
        (decode_search_results, encode_search_results,
         [SearchResult(300, 1.5, "snippet é"), SearchResult(1, 2.0)],
         "trailing bytes in result batch"),
        (decode_kv_stream, encode_kv_stream,
         [KeyValue("key é", 300), KeyValue("", 0)],
         "trailing bytes in kv batch"),
    ])
    def test_every_malformation_raises_the_same_wire_error(
            self, decode, encode, records, trailing):
        encoded = encode(records)
        seen = set()
        for cut in range(len(encoded)):
            with pytest.raises(WireError) as err:
                decode(encoded[:cut])
            with pytest.raises(WireError) as reference:
                _per_record_decode(type(records[0]), encoded[:cut])
            assert str(err.value) == str(reference.value)
            seen.add(str(err.value))
        assert {"truncated varint", "truncated byte blob"} <= seen <= {
            "truncated varint", "truncated float", "truncated byte blob"}
        with pytest.raises(WireError, match=f"2 {trailing}"):
            decode(encoded + b"\x00\x00")
        with pytest.raises(WireError, match="varint longer than 10 bytes"):
            decode(b"\xff" * 11)
        # A declared count with nothing behind it sizes no allocation.
        with pytest.raises(WireError, match="truncated varint"):
            decode(write_varint(2**60))

    @pytest.mark.parametrize("records", [
        [SearchResult(300, 1.5, "snippet é"), SearchResult(1, -0.0)],
        # A two-byte snippet length, multi-byte code points, NaN payload.
        [SearchResult(2**63, _score(0xFFF80000DEADBEEF), _WIDE * 20),
         SearchResult(127, 0.0, "\U0001d11e")],
    ])
    def test_search_results_at_every_cut_in_type_and_text(self, records):
        encoded = encode_search_results(records)
        for cut in range(len(encoded) + 1):
            for junk in (b"", b"\x00", b"\xff\xfe"):
                data = encoded[:cut] + junk
                assert _decode_outcome(decode_search_results, data) \
                    == _decode_outcome(_reference_decode_search_results,
                                       data)
        assert _decode_outcome(decode_search_results, encoded) \
            == _bits(records)

    def test_invalid_utf8_message(self):
        good = encode_search_results([SearchResult(1, 0.5, "ab")])
        with pytest.raises(WireError, match="invalid UTF-8 in string"):
            decode_search_results(good[:-2] + b"\xff\xfe")
        good = encode_kv_stream([KeyValue("ab", 1)])
        with pytest.raises(WireError, match="invalid UTF-8 in string"):
            decode_kv_stream(good[:2] + b"\xff\xfe" + good[4:])


def _poke(data: bytes, at: int, byte: int) -> bytes:
    if not data:
        return data
    at %= len(data)
    return data[:at] + bytes([byte]) + data[at + 1:]


class TestRecordBatchDecodersAreTotal:
    """Any byte string either decodes to a value whose re-encoding is
    that byte string, or raises ``WireError`` -- nothing else."""

    #: Arbitrary bytes rarely get past the count; these get deep.
    _NEAR_VALID = st.one_of(
        st.binary(max_size=64),
        st.builds(
            lambda records, cut, junk: (
                encode_search_results(records)[:cut] + junk),
            _search_results(max_size=4), st.integers(0, 80),
            st.binary(max_size=6)),
        st.builds(
            lambda pairs, cut, junk: encode_kv_stream(pairs)[:cut] + junk,
            _key_values(max_size=4), st.integers(0, 80),
            st.binary(max_size=6)),
        st.builds(
            lambda records, at, byte: _poke(encode_search_results(records),
                                            at, byte),
            _search_results(max_size=4), st.integers(0, 200),
            st.integers(0, 255)),
    )

    @given(_NEAR_VALID)
    @example(b"\x80\x00")
    @example(b"\x81\x00\x05" + bytes(8) + b"\x00")
    @settings(max_examples=500)
    def test_search_results(self, data):
        assert _decode_outcome(decode_search_results, data) \
            == _decode_outcome(_reference_decode_search_results, data)
        try:
            decoded = decode_search_results(data)
        except WireError:
            return
        assert encode_search_results(decoded) == data

    @given(_NEAR_VALID)
    @example(b"\x80\x00")
    @example(b"\x81\x00\x01k\x83\x00")
    @settings(max_examples=500)
    def test_kv_stream(self, data):
        try:
            decoded = decode_kv_stream(data)
        except WireError:
            return
        assert encode_kv_stream(decoded) == data

    @pytest.mark.parametrize("data", [
        b"\x80\x00",                        # a padded count of zero
        b"\x81\x00\x05" + bytes(8) + b"\x00",  # a padded count of one
        b"\x01\x85\x00" + bytes(8) + b"\x00",  # a padded doc id
        b"\x01\x05" + bytes(8) + b"\x80\x00",  # a padded snippet length
    ])
    def test_padded_varints_no_longer_decode(self, data):
        with pytest.raises(WireError, match="overlong varint"):
            decode_search_results(data)

    def test_padded_kv_varints_no_longer_decode(self):
        for data in (b"\x80\x00", b"\x01\x80\x00\x05", b"\x01\x00\x85\x00"):
            with pytest.raises(WireError, match="overlong varint"):
                decode_kv_stream(data)

