"""The paper's three-tier multi-rooted topology (§2.4, §4.1).

Structure (modelled after VL2/fat-tree style scalable DC architectures):

- ``n_pods`` pods, each with ``tors_per_pod`` top-of-rack switches and
  ``aggrs_per_pod`` aggregation switches;
- every ToR connects to every aggregation switch of its pod;
- every aggregation switch connects to every one of ``n_cores`` core
  switches (multi-rooted: many equal-cost core paths);
- ``hosts_per_tor`` servers per rack on ``edge_rate`` links.

Over-subscription is applied at the ToR tier, as in the paper: the total
uplink capacity of a ToR is ``hosts_per_tor * edge_rate /
oversubscription``, split across its pod's aggregation switches.
Aggregation-to-core capacity preserves the post-ToR bandwidth (no further
over-subscription), matching the paper's "over-subscription ratio at the
ToR tier" knob.

The paper's full-size instance -- 1,024 servers, 64 ToR, 16 aggregation
and 8 core switches of 16-port class -- is ``ThreeTierParams()`` with
defaults; experiments use scaled-down instances for CI-speed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.topology.base import AGGR, CORE, HOST, TOR, Node, Topology
from repro.units import Gbps


@dataclass(frozen=True)
class ThreeTierParams:
    """Parameters of the three-tier builder (defaults = paper scale)."""

    n_pods: int = 8
    tors_per_pod: int = 8
    aggrs_per_pod: int = 2
    n_cores: int = 8
    hosts_per_tor: int = 16
    edge_rate: float = Gbps(1.0)
    oversubscription: float = 4.0

    def __post_init__(self) -> None:
        if min(self.n_pods, self.tors_per_pod, self.aggrs_per_pod,
               self.n_cores, self.hosts_per_tor) < 1:
            raise ValueError("all counts must be >= 1")
        if self.edge_rate <= 0:
            raise ValueError("edge_rate must be positive")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1 (1 = full bisection)")

    @property
    def n_hosts(self) -> int:
        return self.n_pods * self.tors_per_pod * self.hosts_per_tor

    @property
    def n_tors(self) -> int:
        return self.n_pods * self.tors_per_pod

    @property
    def tor_uplink_rate(self) -> float:
        """Capacity of one ToR->aggregation link."""
        total = self.hosts_per_tor * self.edge_rate / self.oversubscription
        return total / self.aggrs_per_pod

    @property
    def aggr_core_rate(self) -> float:
        """Capacity of one aggregation->core link."""
        down = self.tors_per_pod * self.tor_uplink_rate
        return down / self.n_cores

    def scaled(self, **overrides) -> "ThreeTierParams":
        """A copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)


#: The QUICK scale's topology (32 hosts): unit tests, ``--scale quick``
#: and the serving layer's default deployment.
QUICK_TOPO = ThreeTierParams(n_pods=2, tors_per_pod=2, aggrs_per_pod=2,
                             n_cores=2, hosts_per_tor=8)


def three_tier(params: ThreeTierParams = ThreeTierParams()) -> Topology:
    """Build the three-tier multi-rooted topology."""
    topo = Topology(name=f"three-tier-{params.n_hosts}")

    for core_idx in range(params.n_cores):
        topo.add_node(Node(f"core:{core_idx}", CORE))

    for pod in range(params.n_pods):
        for aggr_idx in range(params.aggrs_per_pod):
            aggr_id = f"aggr:{pod}:{aggr_idx}"
            topo.add_node(Node(aggr_id, AGGR, pod=pod))
            for core_idx in range(params.n_cores):
                topo.connect(aggr_id, f"core:{core_idx}", params.aggr_core_rate)
        for tor_idx in range(params.tors_per_pod):
            rack = pod * params.tors_per_pod + tor_idx
            tor_id = f"tor:{rack}"
            topo.add_node(Node(tor_id, TOR, rack=rack, pod=pod))
            for aggr_idx in range(params.aggrs_per_pod):
                topo.connect(tor_id, f"aggr:{pod}:{aggr_idx}",
                             params.tor_uplink_rate)
            for host_idx in range(params.hosts_per_tor):
                host_id = f"host:{rack * params.hosts_per_tor + host_idx}"
                topo.add_node(Node(host_id, HOST, rack=rack, pod=pod))
                topo.connect(host_id, tor_id, params.edge_rate)

    return topo
