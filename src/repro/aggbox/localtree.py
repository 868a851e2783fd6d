"""Local aggregation trees (§3.2.1).

Within one agg box, aggregation computation forms a *local aggregation
tree* of tasks: leaves ingest deserialised partial results, internal
tasks merge the outputs of their children, and the root produces the
box's aggregate.  Execution is pipelined (chunks stream through the
tree) with back-pressure via bounded buffers.

Two faces:

- :func:`tree_aggregate` -- the *functional* execution: merges real
  values through a binary tree, used by the apps and the platform.  For
  associative/commutative functions the result equals a flat merge,
  which the property tests assert.
- :class:`LocalTreeModel` -- the *performance* model: a discrete-event
  simulation of the pipelined tree over a thread pool, reproducing the
  micro-benchmark of Fig. 15 (throughput vs. leaves and pool size) and
  the scale-up behaviour of Fig. 21.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.aggbox.functions import DEFAULT_CORE_RATE, AggregationFunction
from repro.netsim.engine import EventQueue
from repro.obs import METRICS
from repro.units import Gbps, MB


def tree_aggregate(function: AggregationFunction,
                   items: Sequence[Any], fan_in: int = 2) -> Any:
    """Merge ``items`` through a ``fan_in``-ary tree of partial merges.

    Equivalent to ``function.merge(items)`` for associative/commutative
    functions; structures the computation the way an agg box schedules
    it (pairwise tasks that can run in parallel).
    """
    if fan_in < 2:
        raise ValueError("fan_in must be >= 2")
    if not items:
        return function.merge([])
    level: List[Any] = list(items)
    while len(level) > 1:
        level = [
            function.merge(level[i:i + fan_in])
            for i in range(0, len(level), fan_in)
        ]
    # One final identity-shaped merge when a single partial came in, so
    # single-input aggregation still passes through the function once.
    if len(items) == 1:
        return function.merge([items[0]])
    return level[0]


@dataclass(frozen=True)
class TreeModelParams:
    """Knobs of the performance model (defaults match §4.2's testbed).

    Attributes:
        leaves: number of leaf inputs L (binary tree: L-1 merge tasks).
        threads: thread-pool size.
        chunk_bytes: granularity of pipelined streaming.
        bytes_per_leaf: input volume each leaf ingests.
        core_rate: per-core merge throughput (bytes/second).
        cpu_factor: function cost multiplier (see AggregationFunction).
        alpha: aggregation output ratio (output chunk = alpha * input).
        buffer_chunks: bounded buffer per tree edge (back-pressure).
        ingest_rate: total rate at which the network layer can feed
            leaves (bytes/second); models the 10 Gbps box link.
    """

    leaves: int = 16
    threads: int = 8
    chunk_bytes: float = 256_000.0
    bytes_per_leaf: float = 8 * MB
    core_rate: float = DEFAULT_CORE_RATE
    cpu_factor: float = 1.0
    alpha: float = 0.10
    buffer_chunks: int = 4
    ingest_rate: float = Gbps(10.0)

    def __post_init__(self) -> None:
        if self.leaves < 1:
            raise ValueError("leaves must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if min(self.chunk_bytes, self.bytes_per_leaf, self.core_rate,
               self.ingest_rate) <= 0:
            raise ValueError("sizes and rates must be positive")
        if self.buffer_chunks < 1:
            raise ValueError("buffer_chunks must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")


@dataclass
class _TaskNode:
    """One merge task of the local tree."""

    node_id: int
    children: List[int]
    parent: Optional[int]
    #: Chunks buffered on the inbound edge from each child (or the
    #: leaf's remaining input when children is empty).
    in_chunks: List[int] = field(default_factory=list)
    out_chunks: int = 0
    running: bool = False


@dataclass
class TreeModelResult:
    """Outcome of one performance-model run."""

    makespan: float
    input_bytes: float
    throughput: float  # input bytes / makespan
    tasks_executed: int
    peak_concurrency: int


class LocalTreeModel:
    """Discrete-event model of a pipelined binary local aggregation tree.

    Leaves hold a backlog of input chunks (their workers are assumed to
    saturate the box link, as in the micro-benchmark).  An internal task
    fires when every child edge has a chunk buffered and its own output
    buffer has space; it occupies one thread for the merge's CPU time and
    emits one (alpha-scaled) chunk upstream.  The root consumes chunks
    immediately.
    """

    def __init__(self, params: TreeModelParams) -> None:
        self._p = params
        self._nodes: List[_TaskNode] = []
        self._build_tree()

    def _build_tree(self) -> None:
        """Binary tree over ``leaves`` leaf slots; nodes are merge tasks."""
        p = self._p
        # Level 0: leaf feeders (not tasks; they just hold backlog).
        current = []
        for leaf in range(p.leaves):
            node = _TaskNode(node_id=len(self._nodes), children=[],
                             parent=None)
            self._nodes.append(node)
            current.append(node.node_id)
        while len(current) > 1:
            next_level = []
            for i in range(0, len(current), 2):
                group = current[i:i + 2]
                if len(group) == 1:
                    # Odd node out: promote it instead of wrapping it in
                    # a pointless single-input merge task.
                    next_level.append(group[0])
                    continue
                node = _TaskNode(node_id=len(self._nodes),
                                 children=list(group), parent=None)
                self._nodes.append(node)
                for child in group:
                    self._nodes[child].parent = node.node_id
                next_level.append(node.node_id)
            current = next_level
        self._root = current[0]

    def run(self) -> TreeModelResult:
        p = self._p
        queue = EventQueue()
        chunks_per_leaf = max(1, round(p.bytes_per_leaf / p.chunk_bytes))
        # Leaf ingest: the shared box link feeds leaves round-robin; we
        # model it as each leaf's backlog becoming available at the
        # aggregate ingest rate.
        for node in self._nodes:
            if not node.children:
                node.in_chunks = [0]
        total_chunks = chunks_per_leaf * p.leaves
        ingest_interval = p.chunk_bytes / p.ingest_rate

        free_threads = [p.threads]
        executed = [0]
        peak = [0]
        busy = [0]

        def deliver(leaf_index: int, seq: int) -> None:
            # _build_tree appends the leaves first.
            self._nodes[leaf_index].in_chunks[0] += 1
            pump()

        # Schedule all chunk arrivals, interleaved across leaves.
        for seq in range(total_chunks):
            leaf_index = seq % p.leaves
            queue.schedule_at(seq * ingest_interval,
                              lambda li=leaf_index, s=seq: deliver(li, s))

        def runnable(node: _TaskNode) -> bool:
            if not node.children or node.running:
                return False
            if node.out_chunks >= p.buffer_chunks and \
                    node.node_id != self._root:
                return False
            return all(
                self._nodes[c].in_chunks[0] > 0
                if not self._nodes[c].children
                else self._nodes[c].out_chunks > 0
                for c in node.children
            )

        def start(node: _TaskNode) -> None:
            node.running = True
            free_threads[0] -= 1
            busy[0] += 1
            peak[0] = max(peak[0], busy[0])
            input_bytes = 0.0
            for c in node.children:
                child = self._nodes[c]
                if child.children:
                    child.out_chunks -= 1
                    input_bytes += p.chunk_bytes * p.alpha
                else:
                    child.in_chunks[0] -= 1
                    input_bytes += p.chunk_bytes
            duration = p.cpu_factor * input_bytes / p.core_rate
            queue.schedule(duration, lambda n=node: finish(n))

        def finish(node: _TaskNode) -> None:
            node.running = False
            free_threads[0] += 1
            busy[0] -= 1
            executed[0] += 1
            if node.node_id != self._root:
                node.out_chunks += 1
            pump()

        def pump() -> None:
            progress = True
            while progress and free_threads[0] > 0:
                progress = False
                for node in self._nodes:
                    if free_threads[0] == 0:
                        break
                    if runnable(node):
                        start(node)
                        progress = True

        pump()
        queue.run()
        # Published once per run (never per task), so the bench ledger
        # sees the work behind Fig. 15 and ablation_streaming.
        METRICS.counter("aggbox.localtree.tasks").inc(executed[0])
        input_bytes = total_chunks * p.chunk_bytes
        makespan = max(queue.now, 1e-12)
        return TreeModelResult(
            makespan=makespan,
            input_bytes=input_bytes,
            throughput=input_bytes / makespan,
            tasks_executed=executed[0],
            peak_concurrency=peak[0],
        )
