"""On-path multicast -- the paper's §5 extension, implemented.

"Application-specific middleboxes can implement efficient versions of
multicast or broadcast protocols (one-to-many); this would enable
further performance improvement of iterative applications with a
distributed broadcast phase, such as graph processing or logistic
regression."

This module reuses the aggregation machinery in reverse: the same
deterministic lanes and box choices build a *distribution tree* rooted
at a source host whose leaves are the receivers.  Each box duplicates
its input once per downstream branch, so a payload crosses every link
at most once -- versus unicast, which sends one copy per receiver over
the source's edge link and the shared core.

:func:`plan_multicast_flows` prices a distribution against the flow
simulator; :func:`multicast_link_copies` exposes the per-link copy
counts the savings come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.tree import lane_links
from repro.core.tree import AggregationTree, TreeBuilder
from repro.netsim.simulator import FlowSpec
from repro.topology.base import Topology


@dataclass
class MulticastTree:
    """A distribution tree: the aggregation tree with edges reversed."""

    source: str
    receivers: Tuple[str, ...]
    tree: AggregationTree


def build_multicast_tree(
    topo: Topology,
    key: str,
    source: str,
    receivers: Sequence[str],
    tree_index: int = 0,
) -> MulticastTree:
    """Build the distribution tree from ``source`` to ``receivers``.

    Construction runs the aggregation-tree builder with the source in
    the master role and the receivers as "workers", then interprets
    parent->child edges as the downstream direction.
    """
    builder = TreeBuilder(topo)
    tree = builder.build(key, source, list(receivers), tree_index)
    return MulticastTree(source=source, receivers=tuple(receivers),
                         tree=tree)


def plan_multicast_flows(
    topo: Topology,
    multicast: MulticastTree,
    payload_bytes: float,
    flow_prefix: str = "mc",
    start_time: float = 0.0,
    chunks: int = 8,
) -> List[FlowSpec]:
    """Flow specs for one multicast distribution.

    One segment per tree edge per *chunk*: boxes forward each chunk as
    soon as it has arrived (cut-through per chunk), so the distribution
    pipelines down the tree instead of serialising a full payload copy
    per level.  Receivers with no on-path box get direct unicast copies.
    """
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be positive")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    tree = multicast.tree
    specs: List[FlowSpec] = []
    chunk_bytes = payload_bytes / chunks
    #: (box id, chunk) -> flow id that delivered the chunk to the box.
    in_flow: Dict[Tuple[str, int], str] = {}

    def deps(*flow_ids) -> Tuple[str, ...]:
        return tuple(f for f in flow_ids if f is not None)

    def prev_chunk(flow_id: str, chunk: int) -> Optional[str]:
        # Same-edge serialisation: chunk c leaves only after chunk c-1,
        # which is what pipelines the distribution down the tree.
        if chunk == 0:
            return None
        return flow_id.rsplit(":c", 1)[0] + f":c{chunk - 1}"

    for chunk in range(chunks):
        # Source -> root boxes.
        for root in tree.roots():
            vertex = tree.boxes[root]
            flow_id = f"{flow_prefix}:down:{root}:c{chunk}"
            # The root's lane_to_parent runs from its switch to the
            # source's ToR; downstream traffic traverses it in reverse.
            lane = tuple(reversed(vertex.lane_to_parent))
            specs.append(FlowSpec(
                flow_id=flow_id,
                size=chunk_bytes,
                path=lane_links((multicast.source,) + lane)
                + (vertex.info.downlink, vertex.info.proc_link),
                start_time=start_time,
                kind="multicast",
                children=deps(prev_chunk(flow_id, chunk)),
            ))
            in_flow[(root, chunk)] = flow_id

        # Box -> child boxes, breadth-first.
        frontier = list(tree.roots())
        while frontier:
            box_id = frontier.pop()
            vertex = tree.boxes[box_id]
            for child in vertex.children:
                child_vertex = tree.boxes[child]
                flow_id = f"{flow_prefix}:down:{child}:c{chunk}"
                lane = tuple(reversed(child_vertex.lane_to_parent))
                specs.append(FlowSpec(
                    flow_id=flow_id,
                    size=chunk_bytes,
                    path=(vertex.info.uplink,)
                    + lane_links(lane)
                    + (child_vertex.info.downlink,
                       child_vertex.info.proc_link),
                    start_time=start_time,
                    kind="multicast",
                    children=deps(in_flow[(box_id, chunk)],
                                  prev_chunk(flow_id, chunk)),
                ))
                in_flow[(child, chunk)] = flow_id
                frontier.append(child)

        # Box -> attached receivers; direct receivers from the source.
        for index, receiver in enumerate(multicast.receivers):
            entry = tree.worker_entry[index]
            flow_id = f"{flow_prefix}:recv:{index}:c{chunk}"
            if entry is None:
                lane = tuple(reversed(tree.worker_lane[index]))
                specs.append(FlowSpec(
                    flow_id=flow_id,
                    size=chunk_bytes,
                    path=lane_links(
                        (multicast.source,) + lane + (receiver,)
                    ),
                    start_time=start_time,
                    kind="multicast",
                    children=deps(prev_chunk(flow_id, chunk)),
                ))
                continue
            vertex = tree.boxes[entry]
            lane = tuple(reversed(tree.worker_lane[index]))
            specs.append(FlowSpec(
                flow_id=flow_id,
                size=chunk_bytes,
                path=(vertex.info.uplink,) + lane_links(lane + (receiver,)),
                start_time=start_time,
                kind="multicast",
                children=deps(in_flow[(entry, chunk)],
                              prev_chunk(flow_id, chunk)),
            ))
    return specs


def plan_unicast_flows(
    topo: Topology,
    source: str,
    receivers: Sequence[str],
    payload_bytes: float,
    flow_prefix: str = "uc",
    start_time: float = 0.0,
) -> List[FlowSpec]:
    """The baseline: one independent unicast copy per receiver."""
    from repro.netsim.routing import EcmpRouter

    router = EcmpRouter()
    specs = []
    for index, receiver in enumerate(receivers):
        flow_id = f"{flow_prefix}:{index}"
        path = router.choose(topo.equal_cost_paths(source, receiver),
                             flow_id)
        specs.append(FlowSpec(
            flow_id=flow_id,
            size=payload_bytes,
            path=path,
            start_time=start_time,
            kind="unicast",
        ))
    return specs


def multicast_link_copies(specs: Sequence[FlowSpec],
                          payload_bytes: float,
                          shared_only: bool = False) -> Dict[str, float]:
    """How many payload-equivalents each wire link carries.

    Chunked flows count fractionally (bytes on the link divided by the
    payload size), so chunking does not distort the comparison.  With
    ``shared_only`` the dedicated box attachment links (never contended
    by other traffic) are excluded -- the savings that matter are on
    *shared* host and inter-switch links.
    """
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be positive")
    copies: Dict[str, float] = {}
    for spec in specs:
        for link in spec.path:
            if link.startswith("proc:"):
                continue
            if shared_only and "box:" in link:
                continue
            copies[link] = copies.get(link, 0.0) + spec.size / payload_bytes
    return copies
