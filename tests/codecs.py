"""Per-record wire readers that only the tests use.

The box path encodes and decodes whole batches (``write_floats`` /
``read_floats``, ``encode_search_results`` / ``decode_search_results``).
The scalar codecs here are the per-record oracle the batch codecs are
held to, and :func:`read_float` is also the decoder of the one-float
``sum`` apps the tests register.
"""

import struct
from typing import Tuple

from repro.wire.records import SearchResult
from repro.wire.serializer import (
    WireTruncated,
    read_string,
    read_varint,
    write_float,
    write_string,
    write_varint,
)

_DOUBLE = struct.Struct(">d")


def read_float(buffer: bytes, offset: int = 0) -> Tuple[float, int]:
    """One IEEE-754 big-endian double: ``(value, new_offset)``."""
    end = offset + 8
    if end > len(buffer):
        raise WireTruncated("truncated float")
    return _DOUBLE.unpack_from(buffer, offset)[0], end


def encode_search_result(result: SearchResult) -> bytes:
    return (write_varint(result.doc_id) + write_float(result.score)
            + write_string(result.snippet))


def decode_search_result(buffer: bytes, offset: int = 0
                         ) -> Tuple[SearchResult, int]:
    doc_id, offset = read_varint(buffer, offset)
    score, offset = read_float(buffer, offset)
    snippet, offset = read_string(buffer, offset)
    return SearchResult(doc_id, score, snippet), offset
