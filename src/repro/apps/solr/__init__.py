"""Mini-Solr: a distributed full-text search engine.

Backends each hold one shard of an inverted index over a synthetic
Wikipedia-like corpus; a frontend scatters queries to all backends and
gathers/merges their top-k partial results -- the partition/aggregation
pattern of §2.1.  The aggregation step (the top-k merge) is what NetAgg
executes on-path.
"""

from repro.apps.solr.backend import SearchBackend
from repro.apps.solr.corpus import Document, generate_corpus, shard_corpus
from repro.apps.solr.frontend import SearchFrontend
from repro.apps.solr.functions import (
    make_topk_wrapper,
)
from repro.apps.solr.index import InvertedIndex

__all__ = [
    "Document",
    "generate_corpus",
    "shard_corpus",
    "InvertedIndex",
    "SearchBackend",
    "SearchFrontend",
    "make_topk_wrapper",
]
