"""Shim layers (§3.2.2).

Shims intercept application traffic at the socket layer and interact
with the agg boxes so applications need no modification:

- :class:`WorkerShim` redirects a worker's outgoing partial result to
  the first agg box along its path (or lets it pass through to the
  master when no box is on the path), splitting data across multiple
  aggregation trees by key hash;
- :class:`MasterShim` records per-request metadata (how many partial
  results the workers will produce), announces it to the boxes, collects
  the aggregated results, and *emulates empty partial results* from all
  but one worker so that unmodified master logic -- which expects one
  response per worker -- still works.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.tree import AggregationTree
from repro.netsim.routing import stable_hash

#: How many retired request ids each :class:`MasterShim` remembers, to
#: refuse their re-use.  At saturation one shim holds 4,096 id strings
#: and their ordered-dict slots: about 0.8 MB with 40-character ids.
RETIRED_ID_WINDOW = 4096


@dataclass(frozen=True)
class Redirect:
    """Where a worker's partial result should go."""

    tree_index: int
    #: Entry box id, or None to pass through to the master unmodified.
    box_id: Optional[str]


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
        ``deadline``    a send exhausted its total retry-time budget
                        (:attr:`repro.faults.RetryPolicy.deadline`) and
                        degraded early;
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


class WorkerShim:
    """Socket-level interception on a worker host."""

    def __init__(self, host: str, worker_index: int,
                 trees: Sequence[AggregationTree]) -> None:
        if not trees:
            raise ValueError("worker shim needs at least one tree")
        self.host = host
        self.worker_index = worker_index
        self._trees = list(trees)
        for tree in self._trees:
            if worker_index not in tree.worker_entry:
                raise ValueError(
                    f"worker {worker_index} missing from tree {tree.key}"
                )

    def redirect_for(self, partition_key: str) -> Redirect:
        """Pick the aggregation tree (by key hash) and its entry box.

        Online services hash request identifiers; batch applications hash
        data keys (§3.1, "Multiple aggregation trees per application").
        """
        index = stable_hash(partition_key) % len(self._trees)
        tree = self._trees[index]
        return Redirect(tree_index=index,
                        box_id=tree.worker_entry[self.worker_index])

    def split(self, items: Sequence[Tuple[str, Any]]
              ) -> Dict[int, List[Any]]:
        """Partition keyed items across the trees (batch applications)."""
        parts: Dict[int, List[Any]] = {i: [] for i in range(len(self._trees))}
        for key, item in items:
            parts[stable_hash(key) % len(self._trees)].append(item)
        return parts

    def send(self, value: Any, transport: Any,
             partition_key: str = "") -> Tuple[Optional[str], Any, float]:
        """Send one partial result, degrading down the ladder (§3.1).

        ``transport`` carries the platform's connection semantics:
        ``connect(source, box_id) -> bool`` (the verdict of the probe
        that burnt retry/backoff clock when the request's tree was
        resolved), ``deliver_box(box_id, worker_index, value)``,
        ``deliver_master(worker_index, value)`` and ``record(kind,
        source, target)`` for ladder events.

        The ladder: try the entry box (with the transport's verdict);
        unreachable boxes are skipped up the ancestor chain to the next
        on-path box (*fallback*); when no box remains, the partial goes
        direct to the master (*bypass*).  Returns whatever the transport
        delivery returned: ``(landing_box_or_None, emitted, bytes)``.
        """
        redirect = self.redirect_for(partition_key)
        tree = self._trees[redirect.tree_index]
        source = f"worker:{self.worker_index}"
        target = redirect.box_id
        fell_back = False
        while target is not None:
            if transport.connect(source, target):
                if fell_back:
                    transport.record("fallback", source, target)
                return transport.deliver_box(target, self.worker_index, value)
            fell_back = True
            target = tree.boxes[target].parent
        if fell_back:
            transport.record("bypass", source, "master")
        return transport.deliver_master(self.worker_index, value)


@dataclass
class _RequestEntry:
    """Master-side state about one in-flight request."""

    request_id: str
    n_workers: int
    expected_per_tree: Dict[int, int]
    received: Dict[int, Any] = field(default_factory=dict)
    direct_results: List[Tuple[int, Any]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        trees_done = all(
            index in self.received
            for index, expected in self.expected_per_tree.items()
            if expected > 0
        )
        return trees_done


class MasterShim:
    """Socket-level interception on the master host."""

    def __init__(self, host: str) -> None:
        self.host = host
        #: Requests in flight: an entry leaves on :meth:`retire`.
        self._requests: Dict[str, _RequestEntry] = {}
        #: The last :data:`RETIRED_ID_WINDOW` retired ids, oldest first.
        self._retired: "OrderedDict[str, None]" = OrderedDict()

    def intercept_request(self, request_id: str,
                          trees: Sequence[AggregationTree],
                          excluded: Sequence[int] = (),
                          ) -> Dict[int, int]:
        """Record an outgoing request's metadata.

        Returns, per tree index, the number of partial results the boxes
        of that tree should expect at their leaves -- the announcement
        the shim sends to agg boxes (§3.2.2, "Partial result collection").

        ``excluded`` names worker indices that will *not* emit (workers
        behind a network partition, dropped by the platform's
        partial-delivery path): they are subtracted from each tree's
        expected count so partial requests still complete, and boxes
        never wait for partials that cannot arrive.
        """
        self.refuse_duplicate(request_id)
        if not trees:
            raise ValueError("request needs at least one tree")
        n_workers = len(trees[0].worker_entry)
        skipped = set(excluded)
        expected = {
            tree.tree_index: sum(
                1 for worker, entry in tree.worker_entry.items()
                if entry is not None and worker not in skipped
            )
            for tree in trees
        }
        self._requests[request_id] = _RequestEntry(
            request_id=request_id,
            n_workers=n_workers,
            expected_per_tree=expected,
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

    def deliver_aggregate(self, request_id: str, tree_index: int,
                          value: Any) -> None:
        """An aggregation tree's root result arrived."""
        entry = self._entry(request_id)
        if tree_index in entry.received:
            raise ValueError(
                f"duplicate aggregate for {request_id!r} tree {tree_index}"
            )
        entry.received[tree_index] = value

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
        "Empty partial results").  ``merge`` combines the per-tree
        aggregates when the application used multiple trees (the master's
        final aggregation step); with one tree it may be None.
        """
        entry = self._entry(request_id)
        if not entry.complete:
            raise RuntimeError(f"request {request_id!r} still in flight")
        aggregates = [entry.received[i] for i in sorted(entry.received)]
        direct = [value for _, value in sorted(entry.direct_results)]
        parts = aggregates + direct
        if len(parts) == 1:
            combined = parts[0]
        else:
            if merge is None:
                raise ValueError(
                    "multiple aggregates need a merge function at the master"
                )
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
