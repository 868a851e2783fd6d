"""The search frontend: scatter queries, gather and merge results.

Plain deployment: the frontend receives every backend's partial top-k
and merges them itself.  NetAgg deployment: the frontend's shim reroutes
partial results through agg boxes, and the frontend sees one aggregated
response plus empty responses from the other backends -- its own merge
logic is unchanged (associativity makes empty inputs harmless), which is
what makes the shim approach transparent.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.aggbox.functions import TopKFunction
from repro.apps.solr.backend import SearchBackend
from repro.wire.records import SearchResult


class SearchFrontend:
    """The master node of the distributed search engine."""

    def __init__(self, backends: Sequence[SearchBackend],
                 k: int = 10) -> None:
        if not backends:
            raise ValueError("frontend needs at least one backend")
        self._backends = list(backends)
        self._merge = TopKFunction(k=k)
        self.k = k
        self.queries_served = 0

    @property
    def global_doc_count(self) -> int:
        return sum(b.n_docs for b in self._backends)

    def gather_term_stats(self, query: str) -> Dict[str, int]:
        """Phase 1 of distributed IDF: corpus-wide document frequencies."""
        totals: Dict[str, int] = {}
        for backend in self._backends:
            for term, df in backend.term_stats(query).items():
                totals[term] = totals.get(term, 0) + df
        return totals

    def scatter(self, query: str) -> List[List[SearchResult]]:
        """Dispatch the query to every backend; collect partial results."""
        total = self.global_doc_count
        global_df = self.gather_term_stats(query)
        return [
            backend.query(query, k=self.k, global_doc_count=total,
                          global_df=global_df)
            for backend in self._backends
        ]

    def search(self, query: str) -> List[SearchResult]:
        """Plain (non-NetAgg) distributed search: scatter + local merge."""
        self.queries_served += 1
        partials = self.scatter(query)
        return self.merge_responses(partials)

    def merge_responses(
        self, responses: Sequence[Optional[List[SearchResult]]]
    ) -> List[SearchResult]:
        """Merge per-backend responses; ``None``/empty entries are the
        shim's emulated empty partial results and are simply absorbed."""
        present = [r for r in responses if r]
        return self._merge.merge(present)

    def search_via(
        self,
        query: str,
        aggregate: Callable[[str, List[List[SearchResult]]],
                            List[Optional[List[SearchResult]]]],
    ) -> List[SearchResult]:
        """Distributed search with an external aggregation path.

        ``aggregate`` stands in for the NetAgg data plane: it takes the
        query and all partial results and returns one response slot per
        backend (aggregated data in one slot, None elsewhere), exactly
        what the master shim delivers.  The frontend code path is the
        same merge as the plain deployment -- no application change.
        """
        self.queries_served += 1
        partials = self.scatter(query)
        responses = aggregate(query, partials)
        if len(responses) != len(self._backends):
            raise ValueError(
                "aggregation path must return one response per backend"
            )
        return self.merge_responses(responses)
