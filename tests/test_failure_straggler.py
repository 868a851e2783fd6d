"""Tests for failure recovery and straggler mitigation."""

import pytest

from repro.aggregation import deploy_boxes
from repro.core.failure import FailureDetector
from repro.core.straggler import StragglerMonitor, StragglerPolicy
from repro.core.tree import TreeBuilder, rewire_failed_box
from repro.topology import ThreeTierParams, three_tier

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
WORKERS = ["host:4", "host:5", "host:8", "host:12"]


def make_tree():
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    return TreeBuilder(topo).build("job", "host:0", WORKERS)


class TestRewireFailedBox:
    def test_children_reparented(self):
        tree = make_tree()
        # Fail a mid-tree box: pick a non-root box with children.
        candidates = [
            b for b, v in tree.boxes.items() if v.parent and v.children
        ]
        failed = candidates[0]
        parent = tree.boxes[failed].parent
        children = list(tree.boxes[failed].children)
        rewired = rewire_failed_box(tree, failed)
        assert failed not in rewired.boxes
        for child in children:
            assert rewired.boxes[child].parent == parent
            assert child in rewired.boxes[parent].children

    def test_direct_workers_move_to_parent(self):
        tree = make_tree()
        entry = tree.worker_entry[0]  # host:4's ToR box
        parent = tree.boxes[entry].parent
        rewired = rewire_failed_box(tree, entry)
        assert rewired.worker_entry[0] == parent
        assert 0 in rewired.boxes[parent].direct_workers

    def test_root_failure_sends_children_to_master(self):
        tree = make_tree()
        (root,) = tree.roots()
        children = list(tree.boxes[root].children)
        rewired = rewire_failed_box(tree, root)
        for child in children:
            assert rewired.boxes[child].parent is None
        assert set(rewired.roots()) == set(children)

    def test_lane_joined_through_failed_box(self):
        tree = make_tree()
        candidates = [
            b for b, v in tree.boxes.items() if v.parent and v.children
        ]
        failed = candidates[0]
        child = tree.boxes[failed].children[0]
        old_lane = tree.boxes[child].lane_to_parent
        rewired = rewire_failed_box(tree, failed)
        new_lane = rewired.boxes[child].lane_to_parent
        assert len(new_lane) > len(old_lane)
        assert new_lane[: len(old_lane)] == old_lane

    def test_unknown_box_raises(self):
        tree = make_tree()
        with pytest.raises(KeyError):
            rewire_failed_box(tree, "box:ghost")

    def test_original_tree_untouched(self):
        tree = make_tree()
        (root,) = tree.roots()
        rewire_failed_box(tree, root)
        assert root in tree.boxes

    def test_cascading_failures(self):
        tree = make_tree()
        survivors = sorted(tree.boxes)
        while survivors:
            tree = rewire_failed_box(tree, survivors[0])
            survivors = sorted(tree.boxes)
        # Everything failed: all workers go direct.
        assert tree.direct_workers() == [0, 1, 2, 3]

    def test_second_victim_inherited_children_lanes_compose(self):
        """B2 dies after adopting B1's children: lanes join twice."""
        tree = make_tree()
        first = [b for b, v in tree.boxes.items() if v.parent and v.children]
        b1 = first[0]
        b2 = tree.boxes[b1].parent
        inherited = list(tree.boxes[b1].children)
        assert inherited, "test needs a victim with children"
        original_lanes = {
            c: tree.boxes[c].lane_to_parent for c in inherited
        }
        once = rewire_failed_box(tree, b1)
        for child in inherited:
            assert once.boxes[child].parent == b2
        grandparent = once.boxes[b2].parent
        twice = rewire_failed_box(once, b2)
        for child in inherited:
            vertex = twice.boxes[child]
            # Inherited child re-parented again, one level further up.
            assert vertex.parent == grandparent
            lane = vertex.lane_to_parent
            original = original_lanes[child]
            # The doubly-joined lane extends the original lane prefix
            # through both dead boxes' lane remainders, no duplicated
            # junction switches.
            assert lane[: len(original)] == original
            assert len(lane) > len(original)
            assert len(lane) == len(set(lane)), f"lane repeats: {lane}"
            if grandparent is not None:
                assert child in twice.boxes[grandparent].children

    def test_root_failure_direct_workers_fall_back_to_master(self):
        tree = make_tree()
        (root,) = tree.roots()
        # Give the root a directly-attached worker by failing the
        # worker's entry chain up to the root first.
        entry = tree.worker_entry[0]
        while entry is not None and entry != root:
            tree = rewire_failed_box(tree, entry)
            entry = tree.worker_entry[0]
        assert tree.worker_entry[0] == root
        assert 0 in tree.boxes[root].direct_workers
        rewired = rewire_failed_box(tree, root)
        # The root's direct workers ship straight to the master now.
        assert rewired.worker_entry[0] is None
        assert 0 in rewired.direct_workers()
        lane = rewired.worker_lane[0]
        assert len(lane) == len(set(lane)), f"lane repeats: {lane}"


class TestFailureDetector:
    def test_healthy_box_not_missing(self):
        detector = FailureDetector(timeout=1.0)
        detector.watch("b1", now=0.0)
        detector.heartbeat("b1", now=0.9)
        assert detector.missing(now=1.5) == []

    def test_overdue_box_reported(self):
        detector = FailureDetector(timeout=1.0)
        detector.watch("b1", now=0.0)
        assert detector.missing(now=1.5) == ["b1"]

    def test_heartbeat_resets_clock(self):
        detector = FailureDetector(timeout=1.0)
        detector.watch("b1", now=0.0)
        detector.heartbeat("b1", now=2.0)
        assert detector.missing(now=2.5) == []

    def test_unwatched_heartbeat_raises(self):
        detector = FailureDetector()
        with pytest.raises(KeyError):
            detector.heartbeat("ghost", now=0.0)

    def test_forget(self):
        detector = FailureDetector(timeout=1.0)
        detector.watch("b1")
        detector.forget("b1")
        assert detector.missing(now=10.0) == []

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            FailureDetector(timeout=0.0)

    def test_clock_regression_clamped(self):
        """A rewound sender clock must not age a live box (skewed
        heartbeats keep the newest timestamp seen)."""
        detector = FailureDetector(timeout=1.0)
        detector.watch("b1", now=0.0)
        detector.heartbeat("b1", now=5.0)
        detector.heartbeat("b1", now=2.0)  # skewed/rewound clock
        assert detector.missing(now=5.5) == []
        # The clamp keeps 5.0, so the box times out from there.
        assert detector.missing(now=6.5) == ["b1"]

    def test_missing_boundary_is_strict(self):
        """Exactly `timeout` seconds since the heartbeat is still alive;
        missing() requires strictly more (`>`, not `>=`)."""
        detector = FailureDetector(timeout=1.0)
        detector.watch("b1", now=0.0)
        assert detector.missing(now=1.0) == []
        assert detector.missing(now=1.0 + 1e-9) == ["b1"]


class TestStragglerMonitor:
    def test_fast_box_is_ok(self):
        monitor = StragglerMonitor(StragglerPolicy(latency_threshold=1.0))
        assert monitor.observe("b1", "r1", latency=0.5) == "ok"
        assert ("b1", "r1") not in monitor._redirected

    def test_slow_box_redirected_per_request(self):
        monitor = StragglerMonitor(StragglerPolicy(latency_threshold=1.0,
                                                   repeat_limit=3))
        assert monitor.observe("b1", "r1", latency=2.0) == "redirect"
        assert ("b1", "r1") in monitor._redirected
        assert ("b1", "r2") not in monitor._redirected

    def test_repeat_offender_fails(self):
        monitor = StragglerMonitor(StragglerPolicy(latency_threshold=1.0,
                                                   repeat_limit=3))
        assert monitor.observe("b1", "r1", latency=2.0) == "redirect"
        assert monitor.observe("b1", "r2", latency=2.0) == "redirect"
        assert monitor.observe("b1", "r3", latency=2.0) == "fail"
        assert monitor.permanently_failed() == ["b1"]

    def test_same_request_does_not_accumulate(self):
        """Slowness must repeat across *different* requests (§3.1)."""
        monitor = StragglerMonitor(StragglerPolicy(latency_threshold=1.0,
                                                   repeat_limit=2))
        monitor.observe("b1", "r1", latency=2.0)
        assert monitor.observe("b1", "r1", latency=3.0) != "fail"
        assert len(monitor._slow_requests["b1"]) == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StragglerPolicy(latency_threshold=0.0)
        with pytest.raises(ValueError):
            StragglerPolicy(repeat_limit=0)

    def test_negative_latency_rejected(self):
        monitor = StragglerMonitor()
        with pytest.raises(ValueError):
            monitor.observe("b1", "r1", latency=-1.0)
