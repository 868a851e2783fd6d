"""Shim layers (§3.2.2).

Shims intercept application traffic at the socket layer and interact
with the agg boxes so applications need no modification:

- the worker shim sends a worker's partial result to the first
  reachable agg box along its path, or straight to the master when none
  is left; on the platform that is ``_Request._send`` in
  :mod:`repro.core.platform`, and batch data is split across the
  aggregation trees by key hash with :func:`split_by_key`;
- :class:`MasterShim` records per-request metadata (how many partial
  results the workers will produce), announces it to the boxes, collects
  the aggregated result, and *emulates empty partial results* from all
  but one worker so that unmodified master logic -- which expects one
  response per worker -- still works.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.tree import AggregationTree
from repro.netsim.routing import stable_hash

#: How many retired request ids each :class:`MasterShim` remembers, to
#: refuse their re-use.  At saturation one shim holds 4,096 id strings
#: and their ordered-dict slots: about 0.8 MB with 40-character ids.
RETIRED_ID_WINDOW = 4096


def split_by_key(items: Sequence[Tuple[str, Any]],
                 n_trees: int) -> Dict[int, List[Any]]:
    """Partition keyed items across ``n_trees`` aggregation trees.

    Batch applications hash data keys (§3.1, "Multiple aggregation
    trees per application"), so one key always lands on one tree.
    """
    parts: Dict[int, List[Any]] = {i: [] for i in range(n_trees)}
    for key, item in items:
        parts[stable_hash(key) % n_trees].append(item)
    return parts


@dataclass(frozen=True)
class ShimEvent:
    """One observable action of the shim fault-handling machinery.

    Kinds:
        ``retry``       a connect attempt to ``target`` timed out;
        ``unreachable`` a box exhausted its attempts and was rewired out;
        ``fallback``    a sender skipped dead boxes and landed on the
                        next reachable on-path box ``target``;
        ``bypass``      a sender ran out of on-path boxes and went
                        direct to the master;
        ``degraded``    a delivery into ``target`` was slowed by a
                        capacity degradation;
        ``churn``       a worker was churning and its emission waited;
        ``breaker-open``  the target's circuit breaker refused the send
                        without burning retry clock;
        ``nack``        a reachable box refused new work (shed window or
                        gray box) and was planned out of the request's
                        tree;
        ``partition``   a worker was isolated from the master by an
                        active partition scope (``target`` names the
                        scope) and dropped from the request (partial
                        delivery);
        ``hedge``       a slow delivery into ``target`` was raced
                        against the hedge deadline instead of waited
                        out (the charged cost is capped at the
                        deadline plus one healthy send).
    """

    at: float
    kind: str
    source: str
    target: str
    attempt: int = 0
    detail: str = ""


@dataclass
class _RequestEntry:
    """Master-side state about one in-flight request."""

    request_id: str
    n_workers: int
    #: Workers whose partial enters the tree's boxes.
    expected: int
    #: The tree's root aggregate, once it arrived (at most one).
    received: List[Any] = field(default_factory=list)
    direct_results: List[Tuple[int, Any]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return bool(self.received) or self.expected == 0


class MasterShim:
    """Socket-level interception on the master host."""

    def __init__(self, host: str) -> None:
        self.host = host
        #: Requests in flight: an entry leaves on :meth:`retire`.
        self._requests: Dict[str, _RequestEntry] = {}
        #: The last :data:`RETIRED_ID_WINDOW` retired ids, oldest first.
        self._retired: "OrderedDict[str, None]" = OrderedDict()

    def intercept_request(self, request_id: str, tree: AggregationTree,
                          excluded: Sequence[int] = ()) -> int:
        """Record an outgoing request's metadata.

        Returns the number of partial results the boxes of ``tree``
        should expect at their leaves -- the announcement the shim sends
        to agg boxes (§3.2.2, "Partial result collection").  A batch job
        runs one request per tree, so a request has exactly one.

        ``excluded`` names worker indices that will *not* emit (workers
        behind a network partition, dropped by the platform's
        partial-delivery path): they are subtracted from the expected
        count so partial requests still complete, and boxes never wait
        for partials that cannot arrive.
        """
        self.refuse_duplicate(request_id)
        skipped = set(excluded)
        expected = sum(1 for worker, entry in tree.worker_entry.items()
                       if entry is not None and worker not in skipped)
        self._requests[request_id] = _RequestEntry(
            request_id=request_id,
            n_workers=len(tree.worker_entry),
            expected=expected,
        )
        return expected

    def refuse_duplicate(self, request_id: str) -> None:
        """Raise if ``request_id`` is in flight here, or is among the
        last :data:`RETIRED_ID_WINDOW` ids this shim retired.

        The platform asks before it admits, plans or probes, so a
        refused id costs its sender nothing but the refusal.
        """
        if request_id in self._requests or request_id in self._retired:
            raise ValueError(f"duplicate request id {request_id!r}")

    def retire(self, request_id: str) -> None:
        """The request is over (answered or failed): drop its entry --
        and with it the aggregate it holds -- and remember only the id,
        evicting the oldest remembered id once the window is full."""
        del self._requests[request_id]
        self._retired[request_id] = None
        if len(self._retired) > RETIRED_ID_WINDOW:
            self._retired.popitem(last=False)

    def deliver_aggregate(self, request_id: str, value: Any) -> None:
        """The aggregation tree's root result arrived."""
        entry = self._entry(request_id)
        if entry.received:
            raise ValueError(f"duplicate aggregate for {request_id!r}")
        entry.received.append(value)

    def deliver_direct(self, request_id: str, worker_index: int,
                       value: Any) -> None:
        """A worker's unaggregated partial result arrived (no on-path box)."""
        entry = self._entry(request_id)
        entry.direct_results.append((worker_index, value))

    def is_complete(self, request_id: str) -> bool:
        return self._entry(request_id).complete

    def emulate_worker_responses(self, request_id: str,
                                 merge: Any = None) -> List[Tuple[int, Any]]:
        """Produce one response per worker for the unmodified master.

        All aggregated data is attached to the lowest worker index; every
        other worker yields an *empty* partial result.  Safe because the
        aggregation function is associative and commutative (§3.2.2,
        "Empty partial results").  ``merge`` combines the tree's
        aggregate with the partials that bypassed the boxes (the
        master's final aggregation step); with one part it may be None.
        """
        entry = self._entry(request_id)
        if not entry.complete:
            raise RuntimeError(f"request {request_id!r} still in flight")
        direct = [value for _, value in sorted(entry.direct_results)]
        parts = entry.received + direct
        if len(parts) == 1:
            combined = parts[0]
        else:
            if merge is None:
                raise ValueError(
                    "several parts need a merge function at the master")
            combined = merge(parts)
        responses: List[Tuple[int, Any]] = [(0, combined)]
        responses.extend((i, None) for i in range(1, entry.n_workers))
        return responses

    def pending_requests(self) -> List[str]:
        return sorted(
            rid for rid, entry in self._requests.items() if not entry.complete
        )

    def _entry(self, request_id: str) -> _RequestEntry:
        entry = self._requests.get(request_id)
        if entry is None:
            raise KeyError(f"unknown request {request_id!r}")
        return entry
