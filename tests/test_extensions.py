"""Tests for the future-work extension: on-path multicast."""

import pytest

from repro.aggregation import deploy_boxes
from repro.core.multicast import (
    build_multicast_tree,
    multicast_link_copies,
    plan_multicast_flows,
    plan_unicast_flows,
)
from repro.netsim import FlowSim
from repro.topology import ThreeTierParams, three_tier
from repro.units import MB

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
RECEIVERS = ["host:1", "host:4", "host:5", "host:8", "host:12", "host:13"]


def make_topo(with_boxes=True):
    topo = three_tier(SMALL)
    if with_boxes:
        deploy_boxes(topo)
    return topo


class TestMulticastTree:
    def test_every_receiver_served(self):
        topo = make_topo()
        mc = build_multicast_tree(topo, "bc", "host:0", RECEIVERS)
        specs = plan_multicast_flows(topo, mc, payload_bytes=MB)
        served = {s.flow_id.split(":")[2] for s in specs
                  if ":recv:" in s.flow_id}
        assert served == {str(i) for i in range(len(RECEIVERS))}
        # Each receiver gets the full payload across its chunk flows.
        for i, receiver in enumerate(RECEIVERS):
            total = sum(s.size for s in specs
                        if s.flow_id.startswith(f"mc:recv:{i}:"))
            assert total == pytest.approx(MB)

    def test_simulation_completes(self):
        topo = make_topo()
        mc = build_multicast_tree(topo, "bc", "host:0", RECEIVERS)
        specs = plan_multicast_flows(topo, mc, payload_bytes=MB)
        sim = FlowSim(topo.network)
        sim.add_flows(specs)
        result = sim.run()
        assert len(result.records) == len(specs)

    def test_multicast_saves_source_link_copies(self):
        """The headline: the source edge link carries one copy, not N."""
        topo = make_topo()
        mc = build_multicast_tree(topo, "bc", "host:0", RECEIVERS)
        mc_specs = plan_multicast_flows(topo, mc, payload_bytes=MB)
        uc_specs = plan_unicast_flows(topo, "host:0", RECEIVERS,
                                      payload_bytes=MB)
        mc_copies = multicast_link_copies(mc_specs, MB)
        uc_copies = multicast_link_copies(uc_specs, MB)
        source_link = "host:0->tor:0"
        assert uc_copies[source_link] == pytest.approx(len(RECEIVERS))
        assert mc_copies[source_link] == pytest.approx(1.0)

    def test_multicast_shared_link_copies_fewer(self):
        """On *shared* (host + inter-switch) links, multicast carries
        strictly fewer payload copies; box attachment links are
        dedicated and excluded."""
        topo = make_topo()
        mc = build_multicast_tree(topo, "bc", "host:0", RECEIVERS)
        mc_total = sum(multicast_link_copies(
            plan_multicast_flows(topo, mc, payload_bytes=MB), MB,
            shared_only=True).values())
        uc_total = sum(multicast_link_copies(
            plan_unicast_flows(topo, "host:0", RECEIVERS,
                               payload_bytes=MB), MB,
            shared_only=True).values())
        assert mc_total < uc_total

    def test_multicast_faster_under_contention(self):
        topo_mc = make_topo()
        mc = build_multicast_tree(topo_mc, "bc", "host:0", RECEIVERS)
        sim = FlowSim(topo_mc.network)
        sim.add_flows(plan_multicast_flows(topo_mc, mc,
                                           payload_bytes=20 * MB))
        mc_done = sim.run().end_time

        topo_uc = make_topo()
        sim = FlowSim(topo_uc.network)
        sim.add_flows(plan_unicast_flows(topo_uc, "host:0", RECEIVERS,
                                         payload_bytes=20 * MB))
        uc_done = sim.run().end_time
        assert mc_done < uc_done

    def test_no_boxes_degenerates_to_unicast(self):
        topo = make_topo(with_boxes=False)
        mc = build_multicast_tree(topo, "bc", "host:0", RECEIVERS)
        specs = plan_multicast_flows(topo, mc, payload_bytes=MB)
        assert all(":recv:" in s.flow_id for s in specs)
        copies = multicast_link_copies(specs, MB)
        assert copies["host:0->tor:0"] == pytest.approx(len(RECEIVERS))

    def test_payload_validation(self):
        topo = make_topo()
        mc = build_multicast_tree(topo, "bc", "host:0", RECEIVERS)
        with pytest.raises(ValueError):
            plan_multicast_flows(topo, mc, payload_bytes=0.0)
