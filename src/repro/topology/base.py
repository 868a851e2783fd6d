"""Generic topology graph shared by all builders.

A topology is a set of typed nodes (hosts, switches at three tiers, agg
boxes) plus a :class:`repro.netsim.network.Network` of directed links.
Every physical cable is represented as two directed links, one per
direction, named ``"<src>-><dst>"``.

Agg boxes are first-class: :meth:`Topology.attach_aggbox` wires a box to a
switch with a pair of (usually 10 Gbps) links *and* creates the virtual
``proc:`` link that models the box's aggregation processing rate
(§2.4 of the paper: the minimum rate R an agg box must sustain).

Equal-cost paths are enumerated by breadth-first search over the switch
graph and memoised; :class:`repro.netsim.routing.EcmpRouter` hashes flows
onto them.

Everything a topology derives from its nodes, links and boxes -- the
path memos and the structural index behind :meth:`Topology.hosts`,
:meth:`Topology.pod_aggrs` and friends -- is dropped by the one
:meth:`Topology._invalidate` every mutator calls, and rebuilt on the
next question.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netsim.network import Link, Network

#: Node tiers, edge to core.
HOST = "host"
TOR = "tor"
AGGR = "aggr"
CORE = "core"
AGGBOX = "aggbox"

SWITCH_TIERS = (TOR, AGGR, CORE)
#: Leaves never relay traffic.
_LEAF_TIERS = (HOST, AGGBOX)


@dataclass(frozen=True)
class Node:
    """A vertex of the topology graph.

    Attributes:
        node_id: unique id, e.g. ``"host:12"`` or ``"aggr:1:0"``.
        tier: one of ``host``, ``tor``, ``aggr``, ``core``, ``aggbox``.
        rack: rack index for hosts/ToRs (-1 elsewhere).
        pod: pod index for hosts/ToRs/aggregation switches (-1 for cores).
    """

    node_id: str
    tier: str
    rack: int = -1
    pod: int = -1


@dataclass(frozen=True)
class AggBoxInfo:
    """One agg box attached to a switch.

    Attributes:
        box_id: node id of the box, e.g. ``"box:tor:3:0"``.
        switch_id: the switch it hangs off.
        proc_link: id of the virtual link modelling its processing rate.
        uplink: link id box -> switch.
        downlink: link id switch -> box.
    """

    box_id: str
    switch_id: str
    proc_link: str
    uplink: str
    downlink: str


def link_id(src: str, dst: str) -> str:
    """Canonical id of the directed link from ``src`` to ``dst``."""
    return f"{src}->{dst}"


@dataclass
class _StructureIndex:
    """Answers derived from one scan of the node table.

    Valid until the next mutation; its size is bounded by the topology
    (``shared_cores`` gains one entry per distinct tuple of
    same-position aggregation switches), never by the traffic that asks.
    """

    #: tier -> node ids in insertion order.
    ids_by_tier: Dict[str, List[str]]
    #: pod -> its aggregation switches, sorted.
    pod_aggrs: Dict[int, Tuple[str, ...]]
    #: Pods that have an aggregation switch, sorted.
    pods: Tuple[int, ...]
    #: aggregation switches -> sorted cores adjacent to all of them.
    shared_cores: Dict[Tuple[str, ...], Tuple[str, ...]] = field(
        default_factory=dict)


class Topology:
    """Nodes + links + agg boxes, with equal-cost path enumeration."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.network = Network()
        self._nodes: Dict[str, Node] = {}
        self._adjacency: Dict[str, List[str]] = {}
        self._boxes: Dict[str, List[AggBoxInfo]] = {}  # switch -> boxes
        self._box_index: Dict[str, AggBoxInfo] = {}  # box id -> info
        self._paths_cache: Dict[Tuple[str, str], Tuple[Tuple[str, ...], ...]] = {}
        #: Per-source BFS over the relay (switch) graph: src ->
        #: (pop order, distances, shortest-path predecessors).  One
        #: sweep serves every destination that source routes to.
        self._bfs_cache: Dict[
            str, Tuple[List[str], Dict[str, int], Dict[str, List[str]]]
        ] = {}
        self._index: Optional[_StructureIndex] = None

    # -- construction -------------------------------------------------------

    def _invalidate(self) -> None:
        """Drop every derived answer; each mutator ends here."""
        self._paths_cache.clear()
        self._bfs_cache.clear()
        self._index = None

    def add_node(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._adjacency[node.node_id] = []
        self._invalidate()

    def connect(self, a: str, b: str, capacity_ab: float,
                capacity_ba: Optional[float] = None) -> None:
        """Wire nodes ``a`` and ``b`` with a directed link pair."""
        for end in (a, b):
            if end not in self._nodes:
                raise KeyError(f"unknown node {end!r}")
        if capacity_ba is None:
            capacity_ba = capacity_ab
        self.network.add_link(Link(link_id(a, b), capacity_ab, src=a, dst=b))
        self.network.add_link(Link(link_id(b, a), capacity_ba, src=b, dst=a))
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        self._invalidate()

    def attach_aggbox(
        self,
        switch_id: str,
        link_rate: float,
        proc_rate: float,
        count: int = 1,
    ) -> List[AggBoxInfo]:
        """Attach ``count`` agg boxes to ``switch_id``.

        Each box gets a bidirectional wire link of ``link_rate`` and a
        virtual processing link of capacity ``proc_rate`` traversed by all
        segments the box aggregates.  Returns the new boxes' infos.
        """
        switch = self._nodes.get(switch_id)
        if switch is None:
            raise KeyError(f"unknown switch {switch_id!r}")
        if switch.tier not in SWITCH_TIERS:
            raise ValueError(f"{switch_id!r} is not a switch")
        created = []
        existing = len(self._boxes.get(switch_id, []))
        for i in range(existing, existing + count):
            box_id = f"box:{switch_id}:{i}"
            self.add_node(Node(box_id, AGGBOX, rack=switch.rack, pod=switch.pod))
            self.connect(box_id, switch_id, link_rate)
            proc_link = f"proc:{box_id}"
            self.network.add_link(Link(proc_link, proc_rate, virtual=True))
            info = AggBoxInfo(
                box_id=box_id,
                switch_id=switch_id,
                proc_link=proc_link,
                uplink=link_id(box_id, switch_id),
                downlink=link_id(switch_id, box_id),
            )
            self._boxes.setdefault(switch_id, []).append(info)
            self._box_index[box_id] = info
            created.append(info)
        self._invalidate()
        return created

    # -- lookups -------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self, tier: Optional[str] = None) -> List[Node]:
        if tier is None:
            return list(self._nodes.values())
        return [self._nodes[i] for i in self._ids(tier)]

    def hosts(self) -> List[str]:
        return list(self._ids(HOST))

    def switches(self, tier: str) -> List[str]:
        if tier not in SWITCH_TIERS:
            raise ValueError(f"not a switch tier: {tier!r}")
        return list(self._ids(tier))

    def pods(self) -> Tuple[int, ...]:
        """The pods that have an aggregation switch, sorted."""
        return self._structure().pods

    def pod_aggrs(self, pod: int) -> Tuple[str, ...]:
        """``pod``'s aggregation switches, sorted (empty if none)."""
        return self._structure().pod_aggrs.get(pod, ())

    def shared_cores(self, aggrs: Tuple[str, ...]) -> Tuple[str, ...]:
        """The core switches adjacent to *every* one of ``aggrs``, sorted."""
        memo = self._structure().shared_cores
        cores = memo.get(aggrs)
        if cores is None:
            common = None
            for aggr in aggrs:
                adjacent = {n for n in self._adjacency[aggr]
                            if self._nodes[n].tier == CORE}
                common = adjacent if common is None else common & adjacent
            cores = memo[aggrs] = tuple(sorted(common or ()))
        return cores

    def _ids(self, tier: str) -> List[str]:
        return self._structure().ids_by_tier.get(tier, [])

    def _structure(self) -> _StructureIndex:
        index = self._index
        if index is None:
            ids_by_tier: Dict[str, List[str]] = {}
            by_pod: Dict[int, List[str]] = {}
            for node in self._nodes.values():
                ids_by_tier.setdefault(node.tier, []).append(node.node_id)
                if node.tier == AGGR:
                    by_pod.setdefault(node.pod, []).append(node.node_id)
            index = self._index = _StructureIndex(
                ids_by_tier=ids_by_tier,
                pod_aggrs={pod: tuple(sorted(ids))
                           for pod, ids in by_pod.items()},
                pods=tuple(sorted(by_pod)),
            )
        return index

    def neighbors(self, node_id: str) -> List[str]:
        return list(self._adjacency[node_id])

    def tor_of(self, host_id: str) -> str:
        """The ToR switch a host (or agg box) connects to."""
        node = self._nodes[host_id]
        if node.tier == AGGBOX:
            return self._box_index[host_id].switch_id
        if node.tier != HOST:
            raise ValueError(f"{host_id!r} is not a host")
        for neighbor in self._adjacency[host_id]:
            if self._nodes[neighbor].tier == TOR:
                return neighbor
        raise ValueError(f"host {host_id!r} has no ToR")

    def rack_of(self, host_id: str) -> int:
        return self._nodes[host_id].rack

    def pod_of(self, node_id: str) -> int:
        return self._nodes[node_id].pod

    def boxes_at(self, switch_id: str) -> List[AggBoxInfo]:
        return list(self._boxes.get(switch_id, []))

    def has_boxes(self, switch_id: str) -> bool:
        return bool(self._boxes.get(switch_id))

    def all_boxes(self) -> List[AggBoxInfo]:
        return list(self._box_index.values())

    def box(self, box_id: str) -> AggBoxInfo:
        return self._box_index[box_id]

    def switches_with_boxes(self) -> List[str]:
        return [s for s, boxes in self._boxes.items() if boxes]

    # -- routing -------------------------------------------------------------

    def equal_cost_paths(self, src: str, dst: str) -> Tuple[Tuple[str, ...], ...]:
        """All shortest paths from ``src`` to ``dst`` as link-id tuples.

        Agg boxes participate like hosts (they are leaves on a switch).
        Virtual ``proc:`` links never appear here; strategies add them
        explicitly for segments that are aggregated.
        """
        if src == dst:
            return ((),)
        key = (src, dst)
        cached = self._paths_cache.get(key)
        if cached is not None:
            return cached
        paths = tuple(
            tuple(link_id(a, b) for a, b in zip(nodes, nodes[1:]))
            for nodes in self._bfs_all_shortest(src, dst)
        )
        self._paths_cache[key] = paths
        return paths

    def node_paths(self, src: str, dst: str) -> List[List[str]]:
        """All shortest paths as node-id sequences (used by strategies)."""
        if src == dst:
            return [[src]]
        return self._bfs_all_shortest(src, dst)

    def _source_bfs(
        self, src: str,
    ) -> Tuple[List[str], Dict[str, int], Dict[str, List[str]]]:
        """One BFS from ``src`` over the relay (switch) graph, memoised.

        Leaf nodes (hosts, boxes) never relay traffic, so the sweep
        skips them entirely; a leaf destination is resolved at query
        time from its adjacent relays.  Returns the nodes in pop order
        (non-decreasing distance), the distance map and the
        shortest-path predecessor lists.
        """
        cached = self._bfs_cache.get(src)
        if cached is not None:
            return cached
        dist: Dict[str, int] = {src: 0}
        preds: Dict[str, List[str]] = {src: []}
        order: List[str] = [src]
        queue = deque([src])
        while queue:
            current = queue.popleft()
            for neighbor in self._adjacency[current]:
                if self._nodes[neighbor].tier in _LEAF_TIERS:
                    continue
                if neighbor not in dist:
                    dist[neighbor] = dist[current] + 1
                    preds[neighbor] = [current]
                    queue.append(neighbor)
                    order.append(neighbor)
                elif dist[neighbor] == dist[current] + 1:
                    preds[neighbor].append(current)
        self._bfs_cache[src] = (order, dist, preds)
        return order, dist, preds

    def _bfs_all_shortest(self, src: str, dst: str) -> List[List[str]]:
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"unknown endpoint in route {src!r} -> {dst!r}")
        # A single-homed leaf reaches everything through its one switch,
        # in the order that switch does: sweep from the switch, so every
        # host of a rack shares one memoised sweep instead of keeping
        # its own.
        root, head = src, [src]
        links = self._adjacency[src]
        if len(links) == 1 and self._nodes[src].tier in _LEAF_TIERS \
                and self._nodes[links[0]].tier not in _LEAF_TIERS:
            root, head = links[0], [src, links[0]]
            if dst == root:
                return [head]
        order, dist, preds = self._source_bfs(root)
        if dst in dist:
            dst_preds = preds[dst]
        else:
            # Leaf destination: its predecessors are the nearest
            # adjacent relays (or the source itself), in pop order --
            # exactly the order a per-destination BFS discovers them.
            adjacent = set(self._adjacency[dst])
            best = None
            for node in order:
                if node in adjacent:
                    best = dist[node]
                    break
            if best is None:
                raise ValueError(f"no path from {src!r} to {dst!r}")
            dst_preds = [node for node in order
                         if node in adjacent and dist[node] == best]

        paths: List[List[str]] = []

        def unwind(node: str, acc: List[str]) -> None:
            if node == root:
                paths.append(head + acc)
                return
            for pred in (dst_preds if node == dst else preds[node]):
                unwind(pred, [node] + acc)

        unwind(dst, [])
        return paths
