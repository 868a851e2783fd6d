"""Tests for mid-request failure recovery (the full §3.1 protocol)."""

import pytest

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.functions import SumFunction
from repro.aggregation import deploy_boxes
from repro.core.recovery import InFlightRequest
from repro.core.tree import TreeBuilder
from repro.topology import ThreeTierParams, three_tier
from repro.wire.serializer import read_float, write_float

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
WORKERS = ["host:4", "host:5", "host:8", "host:12"]
VALUES = [1.0, 2.0, 4.0, 8.0]
EXPECTED_SUM = 15.0


def make_request():
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    tree = TreeBuilder(topo).build("req", "host:0", WORKERS)
    function = SumFunction()
    boxes = {}
    for info in topo.all_boxes():
        runtime = AggBoxRuntime(info.box_id)
        runtime.register_app(AppBinding(
            app="sum", function=function,
            deserialise=lambda b: read_float(b)[0],
            serialise=write_float,
        ))
        boxes[info.box_id] = runtime
    request = InFlightRequest(
        tree, boxes, "sum", "req", VALUES,
        merge=lambda parts: function.merge(parts),
    )
    request.announce_all()
    return request


def merge(parts):
    return SumFunction().merge(parts)


class TestNoFailure:
    def test_clean_run(self):
        request = make_request()
        request.deliver_all_workers()
        assert request.finish(merge) == pytest.approx(EXPECTED_SUM)
        assert request.logs == []


class TestFailureBeforeDelivery:
    @pytest.mark.parametrize("which_box", range(5))
    def test_fail_any_box_before_workers_send(self, which_box):
        request = make_request()
        boxes = sorted(request.tree.boxes)
        if which_box >= len(boxes):
            pytest.skip("tree smaller than index")
        log = request.fail_box(boxes[which_box])
        request.deliver_all_workers()
        assert request.finish(merge) == pytest.approx(EXPECTED_SUM)
        assert log.failed_box == boxes[which_box]


class TestFailureMidRequest:
    def test_fail_entry_box_after_partial_delivery(self):
        """One worker delivered into its entry box, then the box dies:
        that worker's shim must resend to the new target."""
        request = make_request()
        entry = request.tree.worker_entry[0]
        request.deliver_worker(0)
        log = request.fail_box(entry)
        assert "worker:0" in log.replayed_sources
        request.deliver_worker(1)
        request.deliver_worker(2)
        request.deliver_worker(3)
        assert request.finish(merge) == pytest.approx(EXPECTED_SUM)

    def test_fail_after_child_emitted_recomputes(self):
        """A child box emitted into F, then F died: the child's
        aggregate is recomputed from shim-retained data (no loss)."""
        request = make_request()
        # Deliver everything, then fail a mid-tree box whose inputs were
        # consumed and forwarded.
        request.deliver_all_workers()
        mid_boxes = [
            b for b, v in request.tree.boxes.items()
            if v.parent is not None and (v.children or v.direct_workers)
        ]
        target = mid_boxes[0]
        request.fail_box(target)
        assert request.finish(merge) == pytest.approx(EXPECTED_SUM)

    def test_fail_every_box_one_by_one(self):
        request = make_request()
        request.deliver_all_workers()
        while request.tree.boxes:
            victim = sorted(request.tree.boxes)[0]
            request.fail_box(victim)
        assert request.finish(merge) == pytest.approx(EXPECTED_SUM)

    def test_duplicate_suppression_when_data_was_safe(self):
        """If F's aggregate already reached its parent, the children are
        told everything was processed and nothing is resent."""
        request = make_request()
        request.deliver_all_workers()
        # Entry boxes have emitted upward by now; pick one whose parent
        # recorded its aggregate.
        for box_id, vertex in sorted(request.tree.boxes.items()):
            if vertex.parent is None:
                continue
            parent_rt = request._boxes[vertex.parent]
            if parent_rt.has_source("sum", "req@t0", f"box:{box_id}"):
                log = request.fail_box(box_id)
                assert log.replayed_sources == []
                assert log.suppressed_sources
                break
        else:
            pytest.skip("no safely-forwarded box found")
        assert request.finish(merge) == pytest.approx(EXPECTED_SUM)

    def test_root_failure_children_feed_master(self):
        request = make_request()
        request.deliver_all_workers()
        (root,) = request.tree.roots()
        log = request.fail_box(root)
        assert log.detector_node == "master"
        assert request.finish(merge) == pytest.approx(EXPECTED_SUM)

    def test_unknown_box_rejected(self):
        request = make_request()
        with pytest.raises(KeyError):
            request.fail_box("box:ghost")

    def test_value_count_validated(self):
        topo = three_tier(SMALL)
        deploy_boxes(topo)
        tree = TreeBuilder(topo).build("req", "host:0", WORKERS)
        with pytest.raises(ValueError):
            InFlightRequest(tree, {}, "sum", "req", [1.0])


class TestRecoveryProperties:
    """Random interleavings of deliveries and failures preserve the
    aggregate exactly."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.integers(0, 30), min_size=0, max_size=6),
           st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_random_failures_preserve_sum(self, fail_picks, split):
        request = make_request()
        # Deliver a prefix of workers, fail some boxes, deliver the rest.
        for index in range(split):
            request.deliver_worker(index)
        for pick in fail_picks:
            alive = sorted(request.tree.boxes)
            if not alive:
                break
            request.fail_box(alive[pick % len(alive)])
        for index in range(split, len(VALUES)):
            request.deliver_worker(index)
        assert request.finish(merge) == pytest.approx(EXPECTED_SUM)

    @given(st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_interleaved_failures(self, period):
        request = make_request()
        delivered = 0
        while delivered < len(VALUES):
            request.deliver_worker(delivered)
            delivered += 1
            if delivered % period == 0 and request.tree.boxes:
                victim = sorted(request.tree.boxes)[0]
                request.fail_box(victim)
        assert request.finish(merge) == pytest.approx(EXPECTED_SUM)

