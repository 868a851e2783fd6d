"""Typed records carried by the wire format.

Two record families cover the paper's case studies:

- :class:`KeyValue` -- Hadoop-style key/value pairs (the agg box uses the
  application's SequenceFile-like codec, §3.2.1);
- :class:`SearchResult` -- Solr-style scored documents aggregated by the
  frontend's top-k merge.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from repro.wire.serializer import (
    WireError,
    WireTruncated,
    append_varint,
    read_float,
    read_string,
    read_varint,
    write_float,
    write_string,
    write_varint,
)

#: A score on the wire: :func:`write_float`'s eight bytes.
_unpack_score = struct.Struct(">d").unpack_from


@dataclass(frozen=True, order=True)
class KeyValue:
    """One map/reduce intermediate pair."""

    key: str
    value: int

    def encode(self) -> bytes:
        return write_string(self.key) + write_varint(self.value)

    @classmethod
    def decode(cls, buffer: bytes, offset: int = 0) -> Tuple["KeyValue", int]:
        key, offset = read_string(buffer, offset)
        value, offset = read_varint(buffer, offset)
        return cls(key, value), offset


class SearchResult(NamedTuple):
    """One scored document of a distributed search response (a tuple:
    every box of a query's tree rebuilds each record it decodes)."""

    doc_id: int
    score: float
    snippet: str = ""

    def encode(self) -> bytes:
        return (write_varint(self.doc_id) + write_float(self.score)
                + write_string(self.snippet))

    @classmethod
    def decode(cls, buffer: bytes, offset: int = 0
               ) -> Tuple["SearchResult", int]:
        doc_id, offset = read_varint(buffer, offset)
        score, offset = read_float(buffer, offset)
        snippet, offset = read_string(buffer, offset)
        return cls(doc_id, score, snippet), offset


def encode_kv_stream(pairs: List[KeyValue]) -> bytes:
    """Count-prefixed batch of key/value pairs."""
    out = bytearray(write_varint(len(pairs)))
    for pair in pairs:
        out += pair.encode()
    return bytes(out)


def decode_kv_stream(buffer: bytes) -> List[KeyValue]:
    count, offset = read_varint(buffer, 0)
    pairs = []
    for _ in range(count):
        pair, offset = KeyValue.decode(buffer, offset)
        pairs.append(pair)
    if offset != len(buffer):
        raise WireError(f"{len(buffer) - offset} trailing bytes in kv batch")
    return pairs


def encode_search_results(results: List[SearchResult]) -> bytes:
    """Count-prefixed batch of search results.

    Byte for byte ``write_varint(len(results))`` followed by each
    result's :meth:`SearchResult.encode`, written into one buffer in one
    pass: every box emission and worker partial of a query is one call.
    """
    out = bytearray()
    append_varint(out, len(results))
    for result in results:
        append_varint(out, result.doc_id)
        out += write_float(result.score)
        if result.snippet:
            snippet = result.snippet.encode("utf-8")
            append_varint(out, len(snippet))
            out += snippet
        else:
            out.append(0)
    return bytes(out)


def decode_search_results(buffer: bytes) -> List[SearchResult]:
    """Inverse of :func:`encode_search_results`, in one pass.

    Result for result what :meth:`SearchResult.decode` returns and
    raises (UTF-8 is validated here, at every hop), without a call and
    a tuple per field; an empty snippet builds no string.
    """
    count, offset = read_varint(buffer, 0)
    size = len(buffer)
    results = []
    for _ in range(count):
        doc_id, offset = read_varint(buffer, offset)
        end = offset + 8
        if end > size:
            raise WireTruncated("truncated float")
        score = _unpack_score(buffer, offset)[0]
        length, offset = read_varint(buffer, end)
        snippet = ""
        if length:
            end = offset + length
            if end > size:
                raise WireTruncated("truncated byte blob")
            try:
                snippet = str(buffer[offset:end], "utf-8")
            except UnicodeDecodeError as exc:
                raise WireError(f"invalid UTF-8 in string: {exc}") from exc
            offset = end
        results.append(SearchResult(doc_id, score, snippet))
    if offset != size:
        raise WireError(f"{size - offset} trailing bytes in result batch")
    return results
