"""Application-specific NetAgg code for mini-Solr (Table 1's plugin).

These wrappers are everything Solr needs to run on NetAgg: an
aggregation function (the QueryComponent-equivalent merge) and the
serialiser/deserialiser pair for its result records.  Their size is
what Table 1 counts.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.aggbox.functions import (
    AggregationFunction,
    TopKFunction,
)
from repro.wire.records import (
    decode_search_results,
    encode_search_results,
)

#: (function, serialise, deserialise) ready for platform registration.
SolrWrapper = Tuple[AggregationFunction,
                    Callable[[Any], bytes], Callable[[bytes], Any]]


def make_topk_wrapper(k: int = 10) -> SolrWrapper:
    """Solr's standard ranked-result merge."""
    return TopKFunction(k=k), encode_search_results, decode_search_results
