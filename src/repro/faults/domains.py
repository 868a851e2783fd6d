"""Partition scopes over a topology.

A ``net-partition`` fault names the scope it cuts off from the rest of
the fabric:

- ``rack:<tor_id>`` -- the rack behind one ToR: its hosts, the agg
  boxes attached to the ToR, and the ToR itself;
- ``pod:<k>`` -- one pod: every host, switch and box in it (core
  switches belong to no pod).

Members stay alive; only reachability across the border is lost.  Two
endpoints are separated by an active partition iff exactly one of them
is inside its scope (see
:meth:`repro.faults.PlatformFaultInjector.isolated`).
"""

from __future__ import annotations

from repro.topology.base import Topology

#: Scope-name prefixes.
RACK_PREFIX = "rack:"
POD_PREFIX = "pod:"


def rack_domain_name(tor_id: str) -> str:
    return f"{RACK_PREFIX}{tor_id}"


def pod_domain_name(pod: int) -> str:
    return f"{POD_PREFIX}{pod}"


def in_scope(topo: Topology, node_id: str, scope: str) -> bool:
    """Is ``node_id`` (host, box, or switch) inside partition ``scope``?

    Pure function of the topology: pod scopes test pod membership (core
    switches belong to no pod), rack scopes test attachment to the named
    ToR.  Unknown nodes are outside every scope (a master name that is
    not in the topology cannot be cut off by it).
    """
    if not topo.has_node(node_id):
        return False
    if scope.startswith(POD_PREFIX):
        try:
            pod = int(scope[len(POD_PREFIX):])
        except ValueError:
            return False
        return topo.pod_of(node_id) == pod
    if scope.startswith(RACK_PREFIX):
        tor = scope[len(RACK_PREFIX):]
        if node_id == tor:
            return True
        node = topo.node(node_id)
        if node.tier == "host":
            return topo.tor_of(node_id) == tor
        if node.tier == "aggbox":
            return topo.box(node_id).switch_id == tor
        return False
    return False
