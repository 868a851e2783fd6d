"""Mid-request failure recovery -- the full §3.1 protocol, executable.

The platform-level rewiring in :mod:`repro.core.platform` handles boxes
that are known-failed *before* a request starts.  This module executes
the harder case the paper describes: box F dies *while* a request is in
flight, after it already consumed some partial results.

Protocol (§3.1, "Handling failures"):

1. upstream node N (F's parent box, or the master shim) detects the
   failure via the heartbeat detector;
2. N contacts F's children (boxes or worker shims) and instructs them to
   redirect future partial results to N itself;
3. to avoid duplicate results, N passes along the last result F
   correctly processed, so already-processed results are not resent.

What can actually be lost?  In this engine (as over TCP with synchronous
forwarding) an emission handed upstream is safe the moment it is handed
over; the only data that dies with F is its *pending* set -- partials
received but not yet folded into an emission.  Recovery therefore
replays exactly those: worker partials from the shims' retained send
buffers, and child-box emissions from the emission log the children keep
until the request is acknowledged.  Everything already processed is
suppressed; everything not yet sent simply follows the rewired tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set

from repro.aggbox.box import AggBoxRuntime
from repro.core.failure import FailureDetector, rewire_failed_box
from repro.core.tree import AggregationTree


@dataclass
class RecoveryLog:
    """What happened during one recovery, for assertions and reports."""

    failed_box: str
    detector_node: str  # parent box id or "master"
    redirected_children: List[str] = field(default_factory=list)
    replayed_sources: List[str] = field(default_factory=list)
    suppressed_sources: List[str] = field(default_factory=list)


class InFlightRequest:
    """One request executing over an aggregation tree, failure-aware.

    Drives the boxes step by step so a caller (the tests and
    ``examples/failure_recovery.py``) can inject a failure between any
    two deliveries.  Worker payloads and child-box
    emissions are retained for replays, exactly like a worker shim's send
    buffer and a box's unacknowledged-output log.
    """

    def __init__(
        self,
        tree: AggregationTree,
        boxes: Dict[str, AggBoxRuntime],
        app: str,
        request_id: str,
        worker_values: Sequence[Any],
        merge=None,
    ) -> None:
        if len(worker_values) != len(tree.worker_entry):
            raise ValueError("one value per tree worker required")
        self.tree = tree
        self.app = app
        self.request_id = request_id
        self._boxes = boxes
        self._worker_values = list(worker_values)
        self._merge = merge
        self._detector = FailureDetector(timeout=1.0)
        #: Emission log: source tag -> emitted value (the sender's
        #: unacknowledged-output buffer).
        self._sent_values: Dict[str, Any] = {}
        self._emit_count: Dict[str, int] = {}
        for box_id in tree.boxes:
            self._detector.watch(box_id)
        #: Aggregates delivered to the master, keyed by source tag.
        self.master_inbox: Dict[str, Any] = {}
        #: Direct (unaggregated) worker deliveries to the master.
        self.master_direct: Dict[int, Any] = {}
        self.logs: List[RecoveryLog] = []

    # -- normal operation -----------------------------------------------------

    def announce_all(self) -> None:
        for box_id in self.tree.boxes:
            self._boxes[box_id].announce(self.app, self._box_request(),
                                         self.tree.fan_in(box_id))

    def deliver_worker(self, index: int) -> None:
        """One worker shim sends its partial result."""
        entry = self.tree.worker_entry[index]
        value = self._worker_values[index]
        if entry is None:
            self.master_direct[index] = value
            return
        source = f"worker:{index}"
        self._sent_values[source] = value
        self._submit(entry, source, value)

    # -- failure injection ------------------------------------------------------

    def fail_box(self, box_id: str) -> RecoveryLog:
        """Box ``box_id`` dies now; run the recovery protocol."""
        if box_id not in self.tree.boxes:
            raise KeyError(f"{box_id!r} is not part of this tree")
        vertex = self.tree.boxes[box_id]
        parent = vertex.parent
        detector = parent if parent is not None else "master"
        log = RecoveryLog(failed_box=box_id, detector_node=detector)
        runtime = self._boxes[box_id]

        # Lost with F: partials it received but never folded upstream.
        lost = runtime.pending_sources(self.app, self._box_request())
        processed = runtime.last_processed(self.app, self._box_request())
        log.suppressed_sources = list(processed)

        # Rewire: F's children (and its direct workers) now feed N.
        log.redirected_children = (
            [f"worker:{w}" for w in vertex.direct_workers]
            + [f"box:{b}" for b in vertex.children]
        )
        self._detach(box_id, set(lost) | set(processed), len(lost))

        # Replay exactly the lost partials from retained send buffers.
        # Membership, not truthiness: None is a legitimate partial value
        # (e.g. a worker with no matching results) and must replay too.
        for source in lost:
            if source not in self._sent_values:
                raise RuntimeError(
                    f"no retained value for lost partial {source!r}"
                )
            value = self._sent_values[source]
            log.replayed_sources.append(source)
            replay_tag = f"{source}~replay{len(self.logs)}"
            # A replay can itself be lost if its new target dies too;
            # retain it under its own tag so it stays replayable.
            self._sent_values[replay_tag] = value
            if parent is not None:
                self._submit(parent, replay_tag, value)
            else:
                self.master_inbox[replay_tag] = value
        self.logs.append(log)
        return log

    # -- completion --------------------------------------------------------------

    def finish(self, merge=None) -> Any:
        """Flush surviving boxes bottom-up and merge at the master."""
        merge = merge or self._merge
        if merge is None:
            raise ValueError("finish needs the application merge function")
        for box_id in self._topological_boxes():
            ready = self._boxes[box_id].flush(self.app,
                                              self._box_request())
            if ready is not None:
                self._propagate(box_id, ready.value)
        parts = [self.master_inbox[s] for s in sorted(self.master_inbox)]
        parts += [self.master_direct[i] for i in sorted(self.master_direct)]
        return merge(parts)

    # -- internals ----------------------------------------------------------------

    def _detach(self, box_id: str, seen: Set[str], replays: int) -> None:
        """Take F = ``box_id`` out of the tree; its parent N adopts.

        ``seen`` are the sources F received (folded or not) and
        ``replays`` how many of them the caller is about to resend.
        """
        vertex = self.tree.boxes[box_id]
        parent = vertex.parent
        self._detector.forget(box_id)
        self.tree = rewire_failed_box(self.tree, box_id)
        if parent is None:
            return
        # N's expected-input count changes: F's single (future) input is
        # replaced by the replays plus whatever F's children have not
        # sent yet.  Exactness only affects *when* N auto-emits -- the
        # final flush pass guarantees completeness either way.
        request = self._box_request()
        future_workers = sum(
            1 for w in vertex.direct_workers if f"worker:{w}" not in seen)
        future_boxes = sum(
            1 for b in vertex.children
            if not any(tag in seen for tag in self._emission_tags(b)))
        emitted_to_parent = any(
            self._boxes[parent].has_source(self.app, request, tag)
            for tag in self._emission_tags(box_id))
        delta = (replays + future_workers + future_boxes
                 - (0 if emitted_to_parent else 1))
        emitted = self._boxes[parent].adjust_expected(self.app, request, delta)
        if emitted is not None:
            self._propagate(parent, emitted.value)

    def _box_request(self) -> str:
        return self.tree.request_key(self.request_id)

    def _emission_tags(self, box_id: str) -> List[str]:
        count = self._emit_count.get(box_id, 0)
        return [f"box:{box_id}"] + [
            f"box:{box_id}@e{k}" for k in range(1, count)
        ]

    def _submit(self, box_id: str, source: str, value: Any) -> None:
        emitted = self._boxes[box_id].submit_partial(
            self.app, self._box_request(), source, value
        )
        if emitted is not None:
            self._propagate(box_id, emitted.value)

    def _propagate(self, box_id: str, value: Any) -> None:
        count = self._emit_count.get(box_id, 0)
        self._emit_count[box_id] = count + 1
        # Re-emissions (post-recovery deltas) carry distinct tags so the
        # parent's duplicate suppression does not swallow them.
        source = f"box:{box_id}" if count == 0 else f"box:{box_id}@e{count}"
        self._sent_values[source] = value
        vertex = self.tree.boxes.get(box_id)
        if vertex is None or vertex.parent is None:
            self.master_inbox[source] = value
        else:
            self._submit(vertex.parent, source, value)

    def _topological_boxes(self) -> List[str]:
        """Children before parents over the (current) tree."""
        order: List[str] = []
        seen: Set[str] = set()

        def visit(box_id: str) -> None:
            if box_id in seen:
                return
            seen.add(box_id)
            for child in self.tree.boxes[box_id].children:
                visit(child)
            order.append(box_id)

        for root in self.tree.roots():
            visit(root)
        return order
