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

Both the flow-level :class:`repro.aggregation.NetAggStrategy` and the
functional :class:`repro.core.platform.NetAggPlatform` build their trees
here, so the simulated and executed systems are wired identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.netsim.routing import stable_hash
from repro.topology.base import AggBoxInfo, Topology


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

    def depth_of(self, box_id: str) -> int:
        """Hops from a box to the master along parent pointers."""
        depth = 1
        vertex = self.boxes[box_id]
        while vertex.parent is not None:
            vertex = self.boxes[vertex.parent]
            depth += 1
        return depth

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
                   worker_hosts: Sequence[str],
                   n_trees: int) -> List[AggregationTree]:
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        return [
            self.build(key, master, worker_hosts, tree_index=t)
            for t in range(n_trees)
        ]

    # -- lane selection -------------------------------------------------------

    def lane(self, key: str, tree_index: int, host: str, master_tor: str,
             master_pod: int) -> List[str]:
        """Deterministic switch lane from ``host``'s ToR to the master."""
        topo = self._topo
        return _TreeChoices(topo, key, tree_index).lane(
            topo.tor_of(host), topo.pod_of(host), master_tor, master_pod)

    def pod_aggr(self, key: str, tree_index: int, pod: int) -> str:
        """The aggregation switch a tree uses within ``pod``.

        The *same position* (index into the pod's sorted aggregation
        switches) is used in every pod of a tree: in a fat-tree, only
        same-position switches share core switches, so a position-
        consistent choice keeps cross-pod lanes wired.  The hash picks
        tree 0's position; further trees round-robin from there,
        guaranteeing disjoint lanes while enough switches exist (§3.1:
        "each aggregation tree uses a disjoint set of agg boxes").
        """
        return _TreeChoices(self._topo, key, tree_index).pod_aggr(pod)

    def core(self, key: str, tree_index: int) -> str:
        """The core switch of a tree's cross-pod lane.

        Chosen among the cores actually adjacent to the tree's
        aggregation switches (any core in a three-tier multi-rooted
        network; the position-matched core group in a fat-tree).
        """
        return _TreeChoices(self._topo, key, tree_index).core()

    def box_id(self, key: str, tree_index: int, switch: str) -> str:
        """The box a tree uses at ``switch``.

        Hash picks tree 0's box; further trees round-robin from there,
        so an application's trees land on *distinct* boxes while enough
        are attached -- the scale-out mechanism of §3.1 ("aggregation
        trees are assigned to agg boxes in a way that balances the load
        between them").
        """
        return _TreeChoices(self._topo, key, tree_index).box_id(switch)

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
