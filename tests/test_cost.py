"""Tests for the deployment cost model."""

import pytest

from repro.cost import netagg_cost, upgrade_cost
from repro.cost.model import (
    NIC_10G,
    PORT_1G,
    PORT_10G,
    network_cost,
    nic_price,
    port_price,
)
from repro.topology import ThreeTierParams
from repro.units import Gbps

BASE = ThreeTierParams()  # 1G edges, 4:1 oversubscription


class TestPriceList:
    def test_rate_selection(self):
        assert port_price(Gbps(1.0)) == PORT_1G
        assert port_price(Gbps(10.0)) == PORT_10G
        assert nic_price(Gbps(10.0)) == NIC_10G


class TestNetworkCost:
    def test_positive_and_itemised(self):
        report = network_cost(BASE)
        assert report.total > 0
        assert len(report.items) == 3

    def test_full_bisection_costs_more(self):
        base = network_cost(BASE).total
        full = network_cost(BASE.scaled(oversubscription=1.0)).total
        assert full > base

    def test_ten_gig_edges_cost_more(self):
        base = network_cost(BASE).total
        ten = network_cost(BASE.scaled(edge_rate=Gbps(10.0))).total
        assert ten > base


class TestUpgradeCost:
    def test_noop_upgrade_is_free(self):
        assert upgrade_cost(BASE, BASE).total == 0.0

    def test_full_bisection_10g_most_expensive(self):
        full_10g = upgrade_cost(
            BASE, BASE.scaled(edge_rate=Gbps(10.0), oversubscription=1.0)
        ).total
        oversub_10g = upgrade_cost(
            BASE, BASE.scaled(edge_rate=Gbps(10.0))
        ).total
        full_1g = upgrade_cost(
            BASE, BASE.scaled(oversubscription=1.0)
        ).total
        assert full_10g > oversub_10g
        assert full_10g > full_1g

    def test_netagg_is_fraction_of_oversub_10g(self):
        """The paper's Fig. 3 finding: NetAgg costs a small fraction of
        even the cheapest serious network upgrade."""
        n_switches = BASE.n_tors + BASE.n_pods * BASE.aggrs_per_pod \
            + BASE.n_cores
        boxes = netagg_cost(n_switches).total
        oversub_10g = upgrade_cost(
            BASE, BASE.scaled(edge_rate=Gbps(10.0))
        ).total
        assert boxes < 0.5 * oversub_10g

    def test_incremental_cheaper_than_full(self):
        full = netagg_cost(88).total
        incremental = netagg_cost(16).total
        assert incremental < 0.25 * full


class TestNetAggCost:
    def test_itemised(self):
        report = netagg_cost(10)
        assert len(report.items) == 3
        assert report.total == 10 * (2500 + 500 + 900)

    def test_zero_boxes_free(self):
        assert netagg_cost(0).total == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            netagg_cost(-1)

    def test_report_add_validation(self):
        report = netagg_cost(1)
        with pytest.raises(ValueError):
            report.add("bad", -1, 10.0)
