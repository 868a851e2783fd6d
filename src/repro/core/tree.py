"""Distributed aggregation-tree construction (§3.1).

A tree spans the agg boxes between a job's workers and its master: the
root is the master, leaves are workers, internal vertices are boxes.
Construction is deterministic per (key, tree index):

- each tree hashes one *lane* through the multi-rooted topology (one
  aggregation switch per pod, one core switch), so different trees of
  the same application spread over disjoint boxes and paths;
- a worker's partial results enter the *first box along its lane* to the
  master; box-less switches are skipped (partial deployments);
- when several boxes share a switch, the (key, tree, switch) hash picks
  one, balancing trees across boxes (scale-out).

A failed box F leaves a tree by :func:`rewire_failed_box`: F's children
(boxes and directly attached workers) are re-parented to F's parent,
lanes joined.  :meth:`TreeBuilder.build_many` rewires the boxes known
before planning out of every tree it builds (``leave_out``), and
:meth:`AggregationTree.worker_path` / :meth:`AggregationTree.box_path`
name the links each tree edge crosses.

The flow-level :class:`repro.aggregation.NetAggStrategy`, the fault
injector's reroutes and the functional
:class:`repro.core.platform.NetAggPlatform` all build their trees and
paths here, so the simulated and executed systems are wired identically.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.netsim.routing import stable_hash
from repro.topology.base import AggBoxInfo, Topology, link_id


def lane_links(nodes: Sequence[str]) -> Tuple[str, ...]:
    """Link ids along an explicit node sequence (a fixed routing lane)."""
    return tuple(link_id(a, b) for a, b in zip(nodes, nodes[1:]))


@dataclass
class BoxVertex:
    """One agg box participating in a tree."""

    info: AggBoxInfo
    #: Parent box id, or None when this box feeds the master directly.
    parent: Optional[str] = None
    #: Switch-node lane from this box's switch to the parent's switch
    #: (or to the master's ToR), inclusive of both endpoints.
    lane_to_parent: Tuple[str, ...] = ()
    #: Child box ids.
    children: List[str] = field(default_factory=list)
    #: Indices of workers whose partials enter the tree at this box.
    direct_workers: List[int] = field(default_factory=list)


@dataclass
class AggregationTree:
    """One aggregation tree of an application request/job."""

    key: str
    tree_index: int
    master: str
    master_tor: str
    #: worker index -> entry box id (None = no box on path, direct).
    worker_entry: Dict[int, Optional[str]]
    #: worker index -> switch-node lane from the worker's ToR to either
    #: the entry box's switch (inclusive) or the master's ToR (direct).
    worker_lane: Dict[int, Tuple[str, ...]]
    boxes: Dict[str, BoxVertex]

    def roots(self) -> List[str]:
        """Box ids that feed the master directly."""
        return sorted(
            box_id for box_id, vertex in self.boxes.items()
            if vertex.parent is None
        )

    def direct_workers(self) -> List[int]:
        """Workers with no box on their path (ship straight to master)."""
        return sorted(
            idx for idx, entry in self.worker_entry.items() if entry is None
        )

    def request_key(self, request_id: str) -> str:
        """The id this tree's boxes know ``request_id`` by: a box keys
        its state on request *and* tree, so two trees of one request
        that share a box (too few for disjoint lanes) stay apart."""
        return f"{request_id}@t{self.tree_index}"

    def fan_in(self, box_id: str, excluded: Collection[int] = ()) -> int:
        """Inputs ``box_id`` is announced to expect (§3.2.2 metadata):
        one per child box and per attached worker, less the ``excluded``
        workers (behind a partition), who will never emit."""
        vertex = self.boxes[box_id]
        workers = vertex.direct_workers
        live = (sum(1 for w in workers if w not in excluded) if excluded
                else len(workers))
        return live + len(vertex.children)

    def worker_path(self, index: int, host: str) -> Tuple[str, ...]:
        """Links worker ``index``'s partial crosses from ``host``: up its
        lane into the entry box's downlink and processing link, or --
        no box on its path -- on to the master."""
        lane = self.worker_lane[index]
        entry = self.worker_entry[index]
        if entry is None:
            return lane_links((host,) + lane + (self.master,))
        info = self.boxes[entry].info
        return lane_links((host,) + lane) + (info.downlink, info.proc_link)

    def box_path(self, box_id: str) -> Tuple[str, ...]:
        """Links ``box_id``'s output crosses: its uplink, its lane, then
        the parent's downlink and processing link, or -- a root -- the
        master's edge."""
        vertex = self.boxes[box_id]
        head = (vertex.info.uplink,) + lane_links(vertex.lane_to_parent)
        if vertex.parent is None:
            return head + (link_id(self.master_tor, self.master),)
        parent = self.boxes[vertex.parent].info
        return head + (parent.downlink, parent.proc_link)


class TreeConstructionError(RuntimeError):
    """Raised when lanes produce an inconsistent parent relation."""


class TreeBuilder:
    """Builds aggregation trees over a topology's deployed boxes."""

    def __init__(self, topo: Topology) -> None:
        self._topo = topo

    def build(self, key: str, master: str, worker_hosts: Sequence[str],
              tree_index: int = 0) -> AggregationTree:
        """Build the ``tree_index``-th tree for the given endpoints."""
        topo = self._topo
        choices = _TreeChoices(topo, key, tree_index)
        master_tor = topo.tor_of(master)
        master_pod = topo.pod_of(master)
        tree = AggregationTree(
            key=key,
            tree_index=tree_index,
            master=master,
            master_tor=master_tor,
            worker_entry={},
            worker_lane={},
            boxes={},
        )
        # Workers of one rack share a lane, so its boxes are registered
        # once: (tor, pod) -> (entry box id or None, the worker's lane).
        entries: Dict[Tuple[str, int],
                      Tuple[Optional[str], Tuple[str, ...]]] = {}
        for index, host in enumerate(worker_hosts):
            if host == master:
                raise ValueError(
                    f"master {host!r} cannot also be a worker ({key})"
                )
            rack = (topo.tor_of(host), topo.pod_of(host))
            entry = entries.get(rack)
            if entry is None:
                entry = entries[rack] = self._enter(
                    tree, choices, choices.lane(*rack, master_tor, master_pod))
            entry_id, tree.worker_lane[index] = entry
            tree.worker_entry[index] = entry_id
            if entry_id is not None:
                tree.boxes[entry_id].direct_workers.append(index)
        return tree

    def build_many(self, key: str, master: str,
                   worker_hosts: Sequence[str], n_trees: int,
                   leave_out: Iterable[str] = ()) -> List[AggregationTree]:
        """The ``n_trees`` trees of ``key``, each with the boxes of
        ``leave_out`` (failed, drained: whatever a planner decided
        before the job) rewired out by :func:`rewire_out`."""
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        leave_out = tuple(leave_out)  # read once per tree
        return [
            rewire_out(self.build(key, master, worker_hosts, tree_index=t),
                       leave_out)
            for t in range(n_trees)
        ]

    # -- lane selection -------------------------------------------------------

    def lane(self, key: str, tree_index: int, host: str, master_tor: str,
             master_pod: int) -> List[str]:
        """Deterministic switch lane from ``host``'s ToR to the master."""
        topo = self._topo
        return _TreeChoices(topo, key, tree_index).lane(
            topo.tor_of(host), topo.pod_of(host), master_tor, master_pod)

    # -- internals -----------------------------------------------------------

    def _enter(self, tree: AggregationTree, choices: "_TreeChoices",
               lane: List[str],
               ) -> Tuple[Optional[str], Tuple[str, ...]]:
        """Register ``lane``'s boxes in ``tree``; returns the entry box
        (None = no box on the lane) and the lane up to it."""
        has_boxes = self._topo.has_boxes
        on_path = [s for s in lane if has_boxes(s)]
        if not on_path:
            return None, tuple(lane)
        vertices = [self._vertex(tree, choices.box_id(s)) for s in on_path]
        for i, vertex in enumerate(vertices):
            if i + 1 < len(vertices):
                parent = vertices[i + 1]
                lane_between = _lane_slice(lane, on_path[i], on_path[i + 1])
                self._set_parent(vertex, parent.info.box_id, lane_between)
                if vertex.info.box_id not in parent.children:
                    parent.children.append(vertex.info.box_id)
            else:
                tail = _lane_slice(lane, on_path[i], lane[-1])
                self._set_parent(vertex, None, tail)
        return (vertices[0].info.box_id,
                tuple(lane[: lane.index(on_path[0]) + 1]))

    def _vertex(self, tree: AggregationTree, box_id: str) -> BoxVertex:
        vertex = tree.boxes.get(box_id)
        if vertex is None:
            vertex = BoxVertex(info=self._topo.box(box_id))
            tree.boxes[box_id] = vertex
        return vertex

    @staticmethod
    def _set_parent(vertex: BoxVertex, parent: Optional[str],
                    lane_between: Tuple[str, ...]) -> None:
        if vertex.lane_to_parent and \
                (vertex.parent, vertex.lane_to_parent) != (parent, lane_between):
            raise TreeConstructionError(
                f"inconsistent parent for box {vertex.info.box_id}: "
                f"{vertex.parent} vs {parent}"
            )
        vertex.parent = parent
        vertex.lane_to_parent = lane_between


class _TreeChoices:
    """The hash choices of one ``(key, tree_index)``, each derived once.

    A tree is one lane position, one core and one box per switch; every
    worker and every hop of a build reads them from here.  Lives for one
    build (or one public selection call), so nothing keyed on a request
    outlives the request.
    """

    def __init__(self, topo: Topology, key: str, tree_index: int) -> None:
        self._topo = topo
        self._key = key
        self._tree_index = tree_index
        self._position: Optional[int] = None
        self._core: Optional[str] = None
        self._boxes: Dict[str, str] = {}

    def lane(self, tor: str, pod: int, master_tor: str,
             master_pod: int) -> List[str]:
        if tor == master_tor:
            return [master_tor]
        if pod == master_pod:
            return [tor, self.pod_aggr(pod), master_tor]
        return [
            tor,
            self.pod_aggr(pod),
            self.core(),
            self.pod_aggr(master_pod),
            master_tor,
        ]

    def pod_aggr(self, pod: int) -> str:
        aggrs = self._topo.pod_aggrs(pod)
        if not aggrs:
            raise ValueError(f"pod {pod} has no aggregation switch")
        position = self._position
        if position is None:
            position = self._position = \
                stable_hash(f"{self._key}:lane") + self._tree_index
        return aggrs[position % len(aggrs)]

    def core(self) -> str:
        if self._core is None:
            topo = self._topo
            cores = topo.shared_cores(
                tuple(self.pod_aggr(pod) for pod in topo.pods()))
            if not cores:
                raise ValueError(
                    "no core switch is reachable from every pod's chosen "
                    "aggregation switch"
                )
            base = stable_hash(f"{self._key}:core")
            self._core = cores[(base + self._tree_index) % len(cores)]
        return self._core

    def box_id(self, switch: str) -> str:
        box_id = self._boxes.get(switch)
        if box_id is None:
            candidates = self._topo.boxes_at(switch)
            if not candidates:
                raise ValueError(f"switch {switch!r} has no agg boxes")
            base = stable_hash(f"{self._key}:box:{switch}")
            box_id = self._boxes[switch] = candidates[
                (base + self._tree_index) % len(candidates)].box_id
        return box_id


def _lane_slice(lane: Sequence[str], src: str, dst: str) -> Tuple[str, ...]:
    start = lane.index(src)
    end = lane.index(dst)
    if end < start:
        raise TreeConstructionError(f"lane runs backwards: {src} -> {dst}")
    return tuple(lane[start:end + 1])


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
