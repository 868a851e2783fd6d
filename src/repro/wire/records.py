"""Typed records carried by the wire format.

Two record families cover the paper's case studies:

- :class:`KeyValue` -- Hadoop-style key/value pairs (the agg box uses the
  application's SequenceFile-like codec, §3.2.1);
- :class:`SearchResult` -- Solr-style scored documents aggregated by the
  frontend's top-k merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.wire.serializer import (
    WireError,
    append_varint,
    read_float,
    read_string,
    read_varint,
    write_float,
    write_string,
    write_varint,
)


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


@dataclass(frozen=True)
class SearchResult:
    """One scored document of a distributed search response."""

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
        snippet = result.snippet.encode("utf-8")
        append_varint(out, len(snippet))
        out += snippet
    return bytes(out)


def decode_search_results(buffer: bytes) -> List[SearchResult]:
    count, offset = read_varint(buffer, 0)
    results = []
    for _ in range(count):
        result, offset = SearchResult.decode(buffer, offset)
        results.append(result)
    if offset != len(buffer):
        raise WireError(
            f"{len(buffer) - offset} trailing bytes in result batch"
        )
    return results
