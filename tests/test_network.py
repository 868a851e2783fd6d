"""Tests for links and the network container."""

import pytest

from repro.netsim.network import Link, Network


class TestLink:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            Link("l", 0.0)

    def test_defaults(self):
        link = Link("a->b", 10.0, src="a", dst="b")
        assert not link.virtual
        assert link.bytes_carried == 0.0


class TestNetwork:
    def test_add_and_lookup(self):
        net = Network([Link("l1", 1.0)])
        assert "l1" in net
        assert net.capacities() == {"l1": 1.0}

    def test_duplicate_rejected(self):
        net = Network([Link("l1", 1.0)])
        with pytest.raises(ValueError):
            net.add_link(Link("l1", 2.0))

    def test_capacities_shape(self):
        net = Network([Link("a", 1.0), Link("b", 2.0)])
        assert net.capacities() == {"a": 1.0, "b": 2.0}

    def test_accounting(self):
        link = Link("l", 1.0)
        net = Network([link])
        net.account("l", 100.0)
        net.account("l", 50.0)
        assert link.bytes_carried == 150.0

    def test_wire_links_excludes_virtual(self):
        net = Network([
            Link("wire", 1.0),
            Link("proc:x", 1.0, virtual=True),
        ])
        assert [l.link_id for l in net.wire_links()] == ["wire"]
        assert len(net.capacities()) == 2
