"""Upgrade-cost calculator (§2.4, "Cost analysis").

The paper compares deploying agg boxes against upgrading the network,
with equipment prices from Popa et al., "A Cost Comparison of Data
Center Network Architectures" (CoNEXT'10).  We use the same flavour of
per-port/per-server prices (documented constants below -- the
absolute dollars matter less than their ratios) and count the equipment
delta each option needs over the base set-up (1 Gbps edges, 4:1
over-subscription).

Options modelled:

- ``FullBisec-10G`` -- full-bisection topology with 10 Gbps edges;
- ``Oversub-10G``   -- keep the over-subscription, 10 Gbps edges;
- ``FullBisec-1G``  -- full bisection at 1 Gbps;
- ``NetAgg``        -- agg boxes on every switch (base network);
- ``Incremental-NetAgg`` -- boxes on the aggregation tier only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.topology.threetier import ThreeTierParams
from repro.units import Gbps


# Unit prices in USD (Popa et al. flavour): ``PORT_*`` per switch port
# (amortised switch cost), ``NIC_*`` per server adapter; agg boxes are
# commodity servers.
PORT_1G = 100.0
PORT_10G = 900.0
NIC_1G = 50.0
NIC_10G = 500.0
AGGBOX_SERVER = 2500.0


def port_price(rate: float) -> float:
    return PORT_10G if rate > Gbps(1.0) else PORT_1G


def nic_price(rate: float) -> float:
    return NIC_10G if rate > Gbps(1.0) else NIC_1G


@dataclass
class CostReport:
    """Itemised equipment cost."""

    label: str
    items: List[Tuple[str, int, float]] = field(default_factory=list)

    def add(self, description: str, quantity: int, unit_price: float) -> None:
        if quantity < 0:
            raise ValueError("quantity must be >= 0")
        self.items.append((description, quantity, unit_price))

    @property
    def total(self) -> float:
        return sum(qty * unit for _, qty, unit in self.items)


def network_cost(params: ThreeTierParams,
                 label: str = "network") -> CostReport:
    """Total network equipment cost of a three-tier configuration.

    Edge equipment is per port/NIC; inter-switch fabric is charged
    *capacity-proportionally* (10G-port price per 10 Gbps of capacity,
    both ends of every tier), which is how bisection bandwidth actually
    drives cost in the Popa et al. comparison -- discrete per-switch port
    counts would hide small over-subscription deltas behind minimum
    connectivity requirements.
    """
    report = CostReport(label=label)
    report.add("edge switch ports", params.n_hosts,
               port_price(params.edge_rate))
    report.add("server NICs", params.n_hosts, nic_price(params.edge_rate))
    # Total uplink capacity: ToR->aggr and aggr->core carry the same
    # post-over-subscription volume; each link has two port ends.
    tor_uplink_total = (params.n_tors * params.hosts_per_tor
                        * params.edge_rate / params.oversubscription)
    fabric_capacity = tor_uplink_total * 2  # two inter-switch tiers
    port_equivalents = math.ceil(fabric_capacity * 2 / Gbps(10.0))
    report.add("inter-switch fabric (10G-port equivalents)",
               port_equivalents, PORT_10G)
    return report


def upgrade_cost(base: ThreeTierParams, target: ThreeTierParams,
                 label: str = "upgrade") -> CostReport:
    """Equipment delta to move the network from ``base`` to ``target``.

    Only additional/replaced equipment is charged (you cannot resell
    ports you rip out, so replacements cost the full new price).
    """
    base_cost = network_cost(base)
    target_cost = network_cost(target, label=label)
    report = CostReport(label=label)
    base_items = {d: (q, u) for d, q, u in base_cost.items}
    for description, quantity, unit in target_cost.items:
        base_q, base_u = base_items.get(description, (0, 0.0))
        if unit != base_u:
            # Rate class changed: all target equipment is new.
            report.add(f"{description} (replaced)", quantity, unit)
        elif quantity > base_q:
            report.add(f"{description} (added)", quantity - base_q, unit)
    return report


def netagg_cost(n_boxes: int, label: str = "NetAgg",
                link_rate: float = Gbps(10.0)) -> CostReport:
    """Cost of deploying ``n_boxes`` agg boxes (server + NIC + port)."""
    if n_boxes < 0:
        raise ValueError("n_boxes must be >= 0")
    report = CostReport(label=label)
    report.add("agg box servers", n_boxes, AGGBOX_SERVER)
    report.add("agg box NICs", n_boxes, nic_price(link_rate))
    report.add("agg box switch ports", n_boxes, port_price(link_rate))
    return report
