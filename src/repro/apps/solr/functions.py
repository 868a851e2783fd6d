"""Application-specific NetAgg code for mini-Solr (Table 1's plugin).

These wrappers are everything Solr needs to run on NetAgg: an
aggregation function (the QueryComponent-equivalent merge) and the
serialiser/deserialiser pair for its result records.  Their size is
what Table 1 counts.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.aggbox.functions import (
    AggregationFunction,
    CategoriseFunction,
    SampleFunction,
    TopKFunction,
)
from repro.wire.records import (
    decode_search_results,
    encode_search_results,
)
from repro.wire.serializer import (
    WireError,
    read_float,
    read_string,
    read_varint,
    write_float,
    write_string,
    write_varint,
)

#: (function, serialise, deserialise) ready for platform registration.
SolrWrapper = Tuple[AggregationFunction,
                    Callable[[Any], bytes], Callable[[bytes], Any]]


def make_topk_wrapper(k: int = 10) -> SolrWrapper:
    """Solr's standard ranked-result merge."""
    return TopKFunction(k=k), encode_search_results, decode_search_results


def make_sample_wrapper(alpha: float = 0.05) -> SolrWrapper:
    """The paper's cheap ``sample`` function over search results."""
    return SampleFunction(alpha=alpha), encode_search_results, \
        decode_search_results


def _encode_categorise(items: List[Tuple[str, float, str]]) -> bytes:
    out = bytearray(write_varint(len(items)))
    for text, score, category in items:
        out += write_string(text)
        out += write_float(score)
        out += write_string(category)
    return bytes(out)


def _decode_categorise(buffer: bytes) -> List[Tuple[str, float, str]]:
    count, offset = read_varint(buffer, 0)
    items = []
    for _ in range(count):
        text, offset = read_string(buffer, offset)
        score, offset = read_float(buffer, offset)
        category, offset = read_string(buffer, offset)
        items.append((text, score, category))
    if offset != len(buffer):
        raise WireError(
            f"{len(buffer) - offset} trailing bytes in categorise batch"
        )
    return items


def make_categorise_wrapper(k: int = 5) -> SolrWrapper:
    """The paper's CPU-intensive ``categorise`` function."""
    return CategoriseFunction(k=k), _encode_categorise, _decode_categorise
