"""Failure detection and recovery (§3.1, "Handling failures").

A lightweight detector runs at every agg box and at the master's shim,
monitoring its *downstream* boxes.  When node N detects that box F
failed, it contacts F's children (boxes or workers) and instructs them
to redirect future partial results to N itself; N also tells them which
results were already processed so nothing is resent (duplicate
suppression, which the box runtime enforces via its processed-sources
set).

The structural half -- removing F from a tree and re-parenting its
children -- is :func:`rewire_failed_box` (:func:`rewire_out` for a set of
boxes known before planning); the detector half is a small heartbeat
monitor usable in both the functional platform and tests.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.tree import AggregationTree


def rewire_failed_box(tree: AggregationTree,
                      failed_box: str) -> AggregationTree:
    """Return a copy of ``tree`` with ``failed_box`` removed.

    The failed box's children (boxes and directly-attached workers) are
    re-parented to its own parent -- the upstream node N that detected
    the failure (the master when F was a root).  Lanes are joined so the
    rewired segments still follow the tree's switch lane.
    """
    if failed_box not in tree.boxes:
        raise KeyError(f"box {failed_box!r} is not part of tree {tree.key}")
    rewired = copy.deepcopy(tree)
    failed = rewired.boxes.pop(failed_box)
    parent_id = failed.parent

    # The lane from a child continues through the failed box's lane
    # (minus the duplicated junction switch).
    def joined_lane(child_lane: Tuple[str, ...]) -> Tuple[str, ...]:
        return child_lane + failed.lane_to_parent[1:]

    if parent_id is not None:
        parent = rewired.boxes[parent_id]
        parent.children.remove(failed_box)

    for child_id in failed.children:
        child = rewired.boxes[child_id]
        child.parent = parent_id
        child.lane_to_parent = joined_lane(child.lane_to_parent)
        if parent_id is not None:
            rewired.boxes[parent_id].children.append(child_id)

    for worker_index in failed.direct_workers:
        if parent_id is None:
            # Workers now ship straight to the master.
            rewired.worker_entry[worker_index] = None
            rewired.worker_lane[worker_index] = joined_lane(
                rewired.worker_lane[worker_index]
            )
        else:
            rewired.worker_entry[worker_index] = parent_id
            rewired.worker_lane[worker_index] = joined_lane(
                rewired.worker_lane[worker_index]
            )
            rewired.boxes[parent_id].direct_workers.append(worker_index)

    return rewired


def rewire_out(tree: AggregationTree,
               box_ids: Iterable[str]) -> AggregationTree:
    """``tree`` with every box of ``box_ids`` it holds rewired out.

    Plan-time §3.1, stated once for every planner: boxes leave in
    sorted id order (adopted children are appended in rewiring order,
    so the order shows in the tree) and ids the tree does not hold are
    skipped.  Returns ``tree`` itself when nothing had to go.
    """
    for box_id in sorted(box_ids):
        if box_id in tree.boxes:
            tree = rewire_failed_box(tree, box_id)
    return tree


@dataclass
class FailureDetector:
    """Heartbeat-based monitoring of downstream boxes.

    Every monitored box must produce a heartbeat at least every
    ``timeout`` seconds; :meth:`missing` reports the boxes considered
    failed at a given time.  Deterministic (driven by explicit clocks)
    so tests and the emulator can exercise exact timings.
    """

    timeout: float = 1.0
    _last_seen: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def watch(self, box_id: str, now: float = 0.0) -> None:
        """Start monitoring a downstream box."""
        self._last_seen.setdefault(box_id, now)

    def heartbeat(self, box_id: str, now: float) -> None:
        """Record a heartbeat from ``box_id`` at local time ``now``.

        Heartbeats are *clamped* against clock regressions: a heartbeat
        stamped earlier than the last one seen (a skewed or rewound
        sender clock) keeps the newer timestamp instead of silently
        rewinding the box towards a spurious timeout.  Legitimate skew
        thus delays detection of a *silent* box but never fails a
        *live* one.
        """
        if box_id not in self._last_seen:
            raise KeyError(f"not watching box {box_id!r}")
        self._last_seen[box_id] = max(self._last_seen[box_id], now)

    def missing(self, now: float) -> List[str]:
        """Boxes whose heartbeat is overdue at time ``now``.

        The boundary is strict: a box is missing only when *more* than
        ``timeout`` seconds have passed since its last heartbeat, so a
        heartbeat landing exactly on the deadline still counts as alive
        (``now - seen > timeout``, not ``>=``).
        """
        return sorted(
            box_id for box_id, seen in self._last_seen.items()
            if now - seen > self.timeout
        )

    def forget(self, box_id: str) -> None:
        self._last_seen.pop(box_id, None)

    def watched(self) -> Set[str]:
        return set(self._last_seen)
