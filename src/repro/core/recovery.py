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
from typing import Any, Dict, List, Optional, Sequence, Set

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


class MigrationAborted(RuntimeError):
    """Raised by a migration interrupt hook to force a rollback."""


@dataclass
class MigrationLog:
    """What happened during one drain-then-cutover migration."""

    box_id: str
    #: Candidate adopters in order (ancestors bottom-up, then "master"),
    #: captured *before* any rewiring -- the cutover failover ladder.
    dest_chain: List[str] = field(default_factory=list)
    parked_sources: List[str] = field(default_factory=list)
    suppressed_sources: List[str] = field(default_factory=list)
    #: Where the parked partials were replayed ("" when nothing was
    #: parked or the migration rolled back).
    replayed_to: str = ""
    #: The interrupt hook aborted the migration; parked partials were
    #: replayed back into the (still live) source box.
    rolled_back: bool = False
    #: The first-choice destination died mid-migration; the cutover
    #: walked down ``dest_chain`` instead.
    failed_over: bool = False


class InFlightRequest:
    """One request executing over an aggregation tree, failure-aware.

    Drives the boxes step by step so tests (and the emulator) can inject
    a failure between any two deliveries.  Worker payloads and child-box
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
        self._failed: Set[str] = set()
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
        self.migrations: List[MigrationLog] = []

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

    def deliver_all_workers(self) -> None:
        for index in range(len(self._worker_values)):
            self.deliver_worker(index)

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

    def migrate_box(self, box_id: str, interrupt=None) -> MigrationLog:
        """Gracefully move ``box_id``'s in-flight work upstream.

        The optimizer's drain-then-cutover protocol on one live request:

        1. **drain** -- the box's pending partials are *parked* (removed
           without entering the duplicate-suppression set), so whatever
           happens next, the values are safely in hand;
        2. **interruption window** -- ``interrupt()`` (if given) runs
           between drain and cutover; the chaos suite uses it to fail
           the destination, fail the migrating box itself, or raise
           :class:`MigrationAborted` to force the rollback path;
        3. **cutover** -- the box leaves the tree (same §3.1 rewiring
           and expected-count arithmetic as :meth:`fail_box`) and the
           parked partials are replayed, under fresh tags, into the
           first member of the pre-captured destination chain that is
           still alive (falling back to the master).

        On :class:`MigrationAborted` the parked partials are replayed
        back into the still-live source box under their original tags
        -- exactness is preserved because parking removed those tags
        from the box's suppression sets, so each replay is accepted
        exactly once.  If the interrupt killed the source box itself,
        rollback is impossible and the cutover proceeds anyway: the
        parked values survive the crash precisely because they were
        parked first.
        """
        if box_id not in self.tree.boxes:
            raise KeyError(f"{box_id!r} is not part of this tree")
        if box_id in self._failed:
            raise ValueError(f"cannot migrate failed box {box_id!r}")
        vertex = self.tree.boxes[box_id]
        chain: List[str] = []
        cursor = vertex.parent
        while cursor is not None:
            chain.append(cursor)
            cursor = self.tree.boxes[cursor].parent
        runtime = self._boxes[box_id]
        request = self._box_request()

        # Phase 1: drain.  Parked partials leave the box's queue but
        # stay replayable; already-folded sources stay suppressed.
        parked = runtime.park_pending(self.app, request)
        log = MigrationLog(
            box_id=box_id,
            dest_chain=chain + ["master"],
            parked_sources=[p.source for p in parked],
            suppressed_sources=runtime.last_processed(self.app, request),
        )

        # Phase 2: the interruption window.
        abort = False
        if interrupt is not None:
            try:
                interrupt()
            except MigrationAborted:
                abort = True
        if abort and box_id not in self._failed:
            for p in parked:
                self._submit(box_id, p.source, p.value)
            log.rolled_back = True
            self.migrations.append(log)
            return log

        # Phase 3: cutover.  If the interrupt failed the migrating box
        # itself, fail_box already rewired it out (with nothing lost --
        # its queue was parked); otherwise detach it now with the same
        # expected-count arithmetic as a failure.  The interrupt may
        # have rewired the tree (e.g. failed the box's parent), so the
        # adoption arithmetic reads the *current* tree, while the
        # failover ladder keeps the pre-drain ``dest_chain``.
        adjusted_parent = None  # adopter whose delta already counts parked
        if box_id in self._failed:
            log.failed_over = True
        else:
            adjusted_parent = self._detach(
                box_id,
                set(log.parked_sources) | set(log.suppressed_sources),
                len(parked))

        dest = next(
            (b for b in chain
             if b not in self._failed and b in self.tree.boxes),
            None,
        )
        if chain and dest != chain[0]:
            log.failed_over = True
        if dest is not None and dest != adjusted_parent and parked:
            # The adopter's expected count does not yet include the
            # parked replays (failover, or the fail_box path already
            # re-parented with an empty queue): announce them.
            self._boxes[dest].adjust_expected(
                self.app, request, +len(parked)
            )
        suffix = f"~mig{len(self.migrations)}"
        for p in parked:
            tag = f"{p.source}{suffix}"
            # Replays are retained like any other send: if the adopter
            # dies later, fail_box can replay them again.
            self._sent_values[tag] = p.value
            if dest is not None:
                self._submit(dest, tag, p.value)
            else:
                self.master_inbox[tag] = p.value
        if parked:
            log.replayed_to = dest if dest is not None else "master"
        self.migrations.append(log)
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

    def _detach(self, box_id: str, seen: Set[str],
                replays: int) -> Optional[str]:
        """Take F = ``box_id`` out of the tree; its parent N adopts.

        ``seen`` are the sources F received (folded or not) and
        ``replays`` how many of them the caller is about to resend.
        Returns N, whose expected count now includes those replays, or
        None when F fed the master.
        """
        vertex = self.tree.boxes[box_id]
        parent = vertex.parent
        self._failed.add(box_id)
        self._detector.forget(box_id)
        self.tree = rewire_failed_box(self.tree, box_id)
        if parent is None:
            return None
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
        return parent

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
