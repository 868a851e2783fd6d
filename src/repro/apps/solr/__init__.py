"""Mini-Solr: a distributed full-text search engine.

Backends each hold one shard of an inverted index over a synthetic
Wikipedia-like corpus; a frontend scatters queries to all backends and
gathers/merges their top-k partial results -- the partition/aggregation
pattern of §2.1.  The aggregation step (the top-k merge) is what NetAgg
executes on-path.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.apps.solr.backend": ["SearchBackend"],
    "repro.apps.solr.corpus": ["Document", "generate_corpus", "shard_corpus"],
    "repro.apps.solr.frontend": ["SearchFrontend"],
    "repro.apps.solr.functions": ["make_topk_wrapper"],
    "repro.apps.solr.index": ["InvertedIndex"],
})
