"""Chaos-invariant suite: random fault schedules x overload levels.

Hypothesis drives randomized (schedule, load) cases against the box
runtime, the platform and the flow simulator and asserts the invariants
the overload-control plane promises (the correctness backstop the
scenario-based fault tests lack):

- **exactness** -- delivered aggregates equal the centralised
  computation over exactly the accepted inputs: nothing lost, nothing
  double-counted, under straggler flushes, mid-request box failures,
  crashes, degradations and churn;
- **termination** -- every request either completes or is refused with
  a typed NACK (:class:`AdmissionNack`); nothing hangs waiting for a
  partial that will never arrive;
- **legal state machines** -- recorded circuit-breaker traces are
  contiguous and only take edges the machine defines, and the health
  feed reports only its three states;
- **determinism** -- a fixed seed reproduces bit-identical shim-event
  and breaker logs;
- **honest completeness** -- under network partitions a partial
  aggregate is never mislabelled exact: the completeness record's
  missing-worker set equals the ground-truth set of workers the
  partition scopes actually cut off, completeness is monotone in the
  surviving workers, and once every window heals requests are exact
  again;
- **nothing left behind** -- after every request, however it ended
  (answered, NACKed, partial, refused as unreachable, or raised out of
  a merge mid-tree), no box buffers a partial or a half-received frame
  and no master shim holds a pending request.

Example counts default to 200 per layer (the acceptance bar) and can be
lowered for smoke runs via ``CHAOS_EXAMPLES``.  ``derandomize=True``
keeps CI stable; any failure prints a ``@reproduce_failure`` blob (see
conftest.py).
"""

import hashlib
import math
import os
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.functions import SumFunction
from repro.aggregation import NetAggStrategy, deploy_boxes
from repro.core import AdmissionController, AdmissionNack, NetAggPlatform
from repro.core.admission import NACK_REASONS
from repro.core.breaker import assert_legal_breaker_transitions
from repro.core.partition import SubtreeUnreachable
from repro.core.recovery import InFlightRequest
from repro.core.tree import TreeBuilder, rewire_failed_box
from repro.faults import (
    BOX_GRAY,
    NET_PARTITION,
    FaultEvent,
    FaultSchedule,
    PlatformFaultInjector,
    SimFaultInjector,
    in_scope,
)
from repro.netsim import simulator
from repro.netsim.simulator import FlowSim
from repro.netsim.vectorized import HAVE_NUMPY
from repro.serve.service import TenantPolicy
from repro.topology import ThreeTierParams, three_tier
from repro.topology.base import TOR
from repro.units import EPSILON
from repro.wire.serializer import write_float
from repro.workload.synthetic import WorkloadParams, generate_workload
from tests.codecs import read_float
from tests.health import health_report
from tests.leftovers import NOTHING, left_behind
from tests.test_simulator import (
    ADMITTED_ONTO_DOWN_LINK,
    STALLED_FLOWS_REROUTED,
    fault_cases,
    faulted_sim,
)

CHAOS_EXAMPLES = int(os.environ.get("CHAOS_EXAMPLES", "200"))
CHAOS = settings(max_examples=CHAOS_EXAMPLES, deadline=None,
                 derandomize=True, print_blob=True)

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
N_HOSTS = SMALL.n_hosts

#: Shared read-only topology for the layers that do not mutate it
#: (platform, box runtime, tree rewiring).  The flow-sim layer builds a
#: fresh one per example because capacity events mutate the network.
TOPO = three_tier(SMALL)
deploy_boxes(TOPO)
BOX_IDS = sorted(info.box_id for info in TOPO.all_boxes())

#: sha256 of the fixed-seed platform run's ``repr((log, breakers))``
#: (see ``test_fixed_seed_reproduces_bit_identical_logs``): 9 retries,
#: 4 unreachable, 39 degraded, 2 churn waits, 1 breaker-open and 5
#: breaker transitions.
FIXED_SEED_LOGS_SHA256 = (
    "9b04b2e6985ebfc6f5a1be07f746f6b3538c0cc4fe72eb4197c328d89a419a17")

#: Every state the platform's health feed may report.
FEED_STATES = ("healthy", "failed", "gray")


def fixed_seed_schedule():
    # The overload and shed windows are flow-simulator faults: the
    # platform ignores them, so the pin is the one taken without them.
    return FaultSchedule.generate(
        seed=7, duration=3.0, boxes=BOX_IDS, workers=15,
        box_crashes=3, degradations=3, churns=2, overloads=3,
        sheds=2, permanent_fraction=0.5)


def health_schedule():
    """Crashes, degradations and churn plus one explicit gray window,
    the feed's only source of ``gray`` (every degradation here stays
    below the detector's threshold)."""
    schedule = FaultSchedule.generate(
        seed=7, duration=3.0, boxes=BOX_IDS, workers=6,
        box_crashes=2, degradations=2, churns=1, permanent_fraction=0.5)
    return FaultSchedule(list(schedule) + [FaultEvent(
        time=0.0, kind=BOX_GRAY, target=BOX_IDS[0], severity=16.0,
        duration=3.0)])


def sum_binding():
    return AppBinding(
        app="sum", function=SumFunction(),
        deserialise=lambda b: read_float(b)[0],
        serialise=write_float,
    )


# ---------------------------------------------------------------------------
# Layer 1: the agg-box runtime under straggler flushes


@st.composite
def box_scenario(draw):
    n_requests = draw(st.integers(1, 4))
    requests = {}
    ops = []
    for r in range(n_requests):
        values = draw(st.lists(st.integers(1, 100), min_size=1,
                               max_size=8))
        rid = f"r{r}"
        requests[rid] = [float(v) for v in values]
        ops.extend((rid, f"w{i}", float(v)) for i, v in enumerate(values))
    order = draw(st.permutations(ops))
    flush_after = draw(st.sets(st.integers(0, len(ops) - 1)))
    return requests, order, flush_after


class TestBoxRuntimeChaos:
    @given(scenario=box_scenario())
    @CHAOS
    def test_exactness_and_termination_under_flush(self, scenario):
        requests, order, flush_after = scenario
        box = AggBoxRuntime("box:chaos")
        box.register_app(sum_binding())
        for rid, values in requests.items():
            box.announce("sum", rid, len(values))

        delivered = {rid: 0.0 for rid in requests}
        accepted = set()

        def collect(emission):
            if emission is not None:
                delivered[emission.request_id] += emission.value

        for step, (rid, source, value) in enumerate(order):
            collect(box.submit_partial("sum", rid, source, value))
            accepted.add((rid, source))
            if step in flush_after:
                collect(box.flush("sum", rid))  # a straggler timeout

        # Duplicate suppression: re-sending any accepted source (the
        # failure-recovery replay path) must not change any aggregate.
        for rid, source in sorted(accepted):
            assert box.submit_partial("sum", rid, source, 1e9) is None

        # Termination: every request emitted once its last partial
        # arrived, or earlier by a straggler flush.
        assert box.pending_requests() == []
        # Late partials of a flushed request wait for the next flush.
        for rid in requests:
            collect(box.flush("sum", rid))
        assert box.pending_count() == 0

        # Exactness: every value was folded into exactly one emission
        # (final or flush delta).
        for rid, values in requests.items():
            assert delivered[rid] == sum(values)
        for rid in requests:
            assert box.release("sum", rid) == 0


# ---------------------------------------------------------------------------
# Layer 2: the functional platform end-to-end


class NanRejectingSum(SumFunction):
    """A sum whose merge refuses NaN: a *poisoned* request carries one,
    so it dies inside whichever box (or master merge) meets it first,
    with its other partials already buffered across the tree."""

    def merge(self, items):
        if any(math.isnan(v) for v in items):
            raise ValueError("NaN partial")
        return super().merge(items)


@st.composite
def platform_scenario(draw):
    seed = draw(st.integers(0, 10 ** 6))
    counts = dict(
        box_crashes=draw(st.integers(0, 2)),
        degradations=draw(st.integers(0, 2)),
        churns=draw(st.integers(0, 2)),
        overloads=draw(st.integers(0, 3)),
        sheds=draw(st.integers(0, 2)),
    )
    permanent = draw(st.sampled_from([0.0, 1.0]))
    policy = TenantPolicy(
        rate=draw(st.sampled_from([2.0, 10.0, 50.0])),
        burst=draw(st.sampled_from([1.0, 3.0])),
    )
    n_requests = draw(st.integers(1, 3))
    requests = []
    for _ in range(n_requests):
        hosts = draw(st.lists(st.integers(0, N_HOSTS - 1), min_size=4,
                              max_size=6, unique=True))
        values = draw(st.lists(st.integers(1, 100),
                               min_size=len(hosts) - 1,
                               max_size=len(hosts) - 1))
        start = draw(st.floats(0.0, 2.5))
        poisoned = draw(st.none() | st.integers(0, len(values) - 1))
        requests.append((hosts[0], hosts[1:], [float(v) for v in values],
                         start, poisoned))
    return seed, counts, permanent, policy, requests


class TestPlatformChaos:
    @given(scenario=platform_scenario())
    @CHAOS
    def test_exact_or_nacked_with_legal_machines(self, scenario):
        seed, counts, permanent, policy, requests = scenario
        schedule = FaultSchedule.generate(
            seed=seed, duration=3.0, boxes=BOX_IDS, workers=8,
            permanent_fraction=permanent, **counts)
        platform = NetAggPlatform(
            TOPO, faults=PlatformFaultInjector(schedule), breakers=True,
            admission=AdmissionController(lambda tenant: policy))
        platform.register_app("sum", NanRejectingSum(), write_float,
                              lambda b: read_float(b)[0])

        # Requests run in start order so the virtual clock only advances.
        for i, (master, workers, values, start, poisoned) in enumerate(
                sorted(requests, key=lambda r: r[3])):
            platform.advance_clock(start)
            partials = [
                (f"host:{h}", math.nan if w == poisoned else v)
                for w, (h, v) in enumerate(zip(workers, values))]
            try:
                outcome = platform.execute_request(
                    "sum", f"r{i}", f"host:{master}", partials)
            except AdmissionNack as nack:
                # Termination by typed NACK: legal reason, logged.
                assert nack.reason in NACK_REASONS
                assert platform._admission.nacks[-1].reason == nack.reason
            except ValueError as rejected:
                # Exit by exception mid-tree: the poisoned kind only.
                assert poisoned is not None
                assert str(rejected) == "NaN partial"
            else:
                # Exactness: byte-identical to the centralised sum.
                assert poisoned is None
                assert outcome.value == sum(values)
                assert len(outcome.worker_responses) == len(partials)
            assert left_behind(platform) == NOTHING

        assert_legal_breaker_transitions(platform.breakers.transitions())
        for beat in health_report(platform).values():
            assert beat.state in FEED_STATES

    def test_fixed_seed_reproduces_bit_identical_logs(self):
        def run_once():
            policy = TenantPolicy(rate=20.0, burst=3.0)
            platform = NetAggPlatform(
                TOPO, faults=PlatformFaultInjector(fixed_seed_schedule()),
                breakers=True,
                admission=AdmissionController(lambda tenant: policy))
            platform.register_app("sum", SumFunction(), write_float,
                                  lambda b: read_float(b)[0])
            partials = [(f"host:{h}", float(h)) for h in range(1, 16)]
            log = []
            for i in range(12):
                platform.advance_clock(i * 0.25)
                try:
                    outcome = platform.execute_request(
                        "sum", f"r{i}", "host:0", partials)
                    assert outcome.value == 120.0
                    log.append([repr(e) for e in outcome.shim_events])
                except AdmissionNack as nack:
                    log.append(repr((nack.tenant, nack.at, nack.reason)))
            breakers = [repr(t) for t in platform.breakers.transitions()]
            return log, breakers

        logs = run_once()
        assert logs == run_once()
        # Frozen, not just repeatable: the shim events, NACK reasons
        # and breaker transitions of this seed.
        digest = hashlib.sha256(repr(logs).encode()).hexdigest()
        assert digest == FIXED_SEED_LOGS_SHA256, logs

    @pytest.mark.parametrize("chaos", [False, True])
    def test_health_feed_reports_only_feed_states(self, chaos):
        schedule = health_schedule() if chaos else FaultSchedule()
        platform = NetAggPlatform(
            TOPO, faults=PlatformFaultInjector(schedule), partition=True)
        platform.register_app("sum", SumFunction(), write_float,
                              lambda b: read_float(b)[0])
        partials = [(f"host:{h}", float(h)) for h in (4, 8, 12, 15)]
        seen = set()
        for i in range(6):
            platform.advance_clock(i * 0.5)
            platform.execute_request("sum", f"r{i}", "host:0", partials)
            seen.update(beat.state
                        for beat in health_report(platform).values())
        platform.fail_box(BOX_IDS[0])
        seen.update(beat.state
                    for beat in health_report(platform).values())
        # The chaos run's gray box turns gray and the failed box
        # reports failed; nothing else ever appears.
        assert seen <= set(FEED_STATES)
        assert seen >= ({"healthy", "failed"}
                        | ({"gray"} if chaos else set()))


# ---------------------------------------------------------------------------
# Layer 3: the flow-level simulator with service-capacity faults


@st.composite
def sim_scenario(draw):
    seed = draw(st.integers(0, 10 ** 6))
    counts = dict(
        overloads=draw(st.integers(0, 4)),
        sheds=draw(st.integers(0, 2)),
        box_crashes=draw(st.integers(0, 1)),
    )
    permanent = draw(st.sampled_from([0.0, 1.0]))
    n_flows = draw(st.integers(8, 18))
    return seed, counts, permanent, n_flows


@st.composite
def capacity_scenario(draw):
    seed = draw(st.integers(0, 10 ** 6))
    counts = dict(
        overloads=draw(st.integers(0, 6)),
        sheds=draw(st.integers(0, 3)),
        box_crashes=draw(st.integers(0, 2)),
        degradations=draw(st.integers(0, 2)),
        link_flaps=draw(st.integers(0, 3)),
    )
    return seed, counts, draw(st.sampled_from([0.0, 1.0]))


def chaos_sim(scenario, sim_class=FlowSim, solver="auto"):
    """A ``sim_class`` (``FlowSim`` or a class built like it) holding a
    NetAgg plan of one :func:`sim_scenario` workload on a fresh small
    topology, with the scenario's faults applied, ready to run."""
    seed, counts, permanent, n_flows = scenario
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    boxes = sorted(info.box_id for info in topo.all_boxes())
    schedule = FaultSchedule.generate(
        seed=seed, duration=1.0, boxes=boxes,
        permanent_fraction=permanent, **counts)
    workload = generate_workload(
        topo, WorkloadParams(n_flows=n_flows), seed=seed % 997 + 1)
    injector = SimFaultInjector(topo, schedule)
    strategy = NetAggStrategy(fault_view=injector.fault_view)
    sim = sim_class(topo.network, solver=solver)
    sim.add_flows(strategy.plan(workload, topo))
    injector.apply(sim, workload)
    return sim


def box_links_of(info):
    return (info.downlink, info.uplink, info.proc_link)


def scheduled_capacity(schedule, info, link, t, built):
    """A box link's capacity at ``t`` read straight off the schedule: 0
    while the link is down, the box crashed or (the downlink) shedding;
    the processing link divided by degradation and worst overload."""
    box = info.box_id
    if link in schedule.links_down_at(t) or box in schedule.crashed_at(t):
        return 0.0
    if link == info.downlink and schedule.shedding_at(box, t):
        return 0.0
    if link == info.proc_link:
        return built / (schedule.degradation_at(box, t)
                        * schedule.overload_at(box, t))
    return built


class TestFlowSimChaos:
    @given(scenario=sim_scenario())
    @CHAOS
    def test_all_flows_drain_under_overload_windows(self, scenario):
        result = chaos_sim(scenario).run()  # raises on stalled flows

        # Termination: overload/shed windows self-clear and permanent
        # crashes reroute, so every admitted flow eventually drains.
        assert result.records
        for record in result.records.values():
            assert math.isfinite(record.fct), record.spec.flow_id
            assert record.fct >= 0.0
        assert math.isfinite(result.end_time)

    @given(scenario=capacity_scenario())
    @CHAOS
    def test_box_capacities_follow_the_schedule(self, scenario):
        """Replayed the way the simulator replays them (time order, ties
        in insertion order), the capacity events leave every box link
        where the schedule's point queries put it, between any two
        changes -- however overload and shed windows, crashes,
        degradations and cuts of the box's own links overlap."""
        seed, counts, permanent = scenario
        boxes = BOX_IDS[:3]
        infos = [TOPO.box(box) for box in boxes]
        box_links = sorted(link for info in infos
                           for link in box_links_of(info))
        schedule = FaultSchedule.generate(
            seed=seed, duration=1.0, boxes=boxes, links=box_links,
            permanent_fraction=permanent, **counts)
        base = TOPO.network.capacities()
        events = sorted(
            SimFaultInjector(TOPO, schedule).capacity_events(TOPO.network),
            key=lambda event: event[0])
        capacity = dict(base)
        times = sorted({when for when, _, _ in events})
        for i, t in enumerate(times):
            for when, link, value in events:
                if when == t:
                    capacity[link] = value
            probe = (t + times[i + 1]) / 2 if i + 1 < len(times) else t + 1.0
            for info in infos:
                for link in box_links_of(info):
                    want = scheduled_capacity(schedule, info, link, probe,
                                              base[link])
                    assert capacity[link] == want, (link, probe)


@contextmanager
def watch_epochs():
    """Check two invariants around every rate epoch of the runs made
    inside the ``with`` block, by wrapping the run's advance step
    (``_Run.advance``, called once per epoch with the epoch's length
    after the solver was consulted).  Yields the list of epoch lengths
    seen.

    - *capacity*: summed per link, the rates of the flows in the solve
      stay within ``capacity * (1 + 1e-9) + 1e-9``; a transferring flow
      is in the solve exactly when its path crosses no link that is
      down (capacity 0);
    - *bytes*: a flow in the solve moves ``rate * dt`` bytes (it leaves,
      drained, when that empties it), and a stalled flow keeps its
      remaining bytes.
    """
    real, epochs = simulator._Run.advance, []

    def advance(run, dt):
        epochs.append(dt)
        state, paths, capacities = run.state, run.paths, run.capacities
        moving = dict(state.moving_rates())
        used = {}
        for flow_id, rate in moving.items():
            for link in paths[flow_id]:
                used[link] = used.get(link, 0.0) + rate
        for link, rate in used.items():
            assert rate <= capacities[link] * (1 + 1e-9) + 1e-9, link
        before = {fid: state.remaining(fid)
                  for fid, record in run.records.items()
                  if math.isnan(record.drain_time)}
        for flow_id in before:
            down = any(capacities[l] <= 0.0 for l in paths[flow_id])
            assert (flow_id not in moving) == down, flow_id
        real(run, dt)
        for flow_id, left in before.items():
            rate = moving.get(flow_id, 0.0)
            want = 0.0 if rate == math.inf else left - rate * dt
            if flow_id in state:
                assert state.remaining(flow_id) == pytest.approx(
                    want, rel=1e-12, abs=1e-12), flow_id
            else:
                size = run.specs[flow_id].size
                assert want <= EPSILON * max(1.0, size), flow_id
                assert run.records[flow_id].drain_time == run.now

    with mock.patch.object(simulator._Run, "advance", advance):
        yield epochs


BACKENDS = ("vectorized", "incremental") if HAVE_NUMPY else ("incremental",)


class TestFlowSimEpochInvariants:
    """Rates never overrun a link, and bytes are neither lost nor made,
    at any epoch of a faulted run (:func:`watch_epochs`)."""

    @staticmethod
    def _watch(build) -> None:
        for solver in BACKENDS:
            with watch_epochs() as epochs:
                result = build(solver).run()
            if any(r.fct > 0 for r in result.records.values()):
                assert epochs

    @given(scenario=sim_scenario())
    @CHAOS
    def test_chaos_runs(self, scenario):
        self._watch(lambda solver: chaos_sim(scenario, solver=solver))

    @settings(max_examples=150, deadline=None)
    @given(case=fault_cases())
    @example(case=ADMITTED_ONTO_DOWN_LINK)
    @example(case=STALLED_FLOWS_REROUTED)
    def test_faulted_dags(self, case):
        self._watch(lambda solver: faulted_sim(case, solver=solver))


# ---------------------------------------------------------------------------
# Cascading failures: sequential tree rewiring (satellite)


def check_tree_invariants(tree, n_workers):
    """Structural invariants every (rewired) aggregation tree must hold."""
    # Worker coverage: every worker still has exactly one entry point.
    assert set(tree.worker_entry) == set(range(n_workers))
    for index, entry in tree.worker_entry.items():
        assert entry is None or entry in tree.boxes
        lane = tree.worker_lane[index]
        assert isinstance(lane, tuple) and lane
        # Lane connectivity: ends at the entry box's switch (or the
        # master's ToR when the worker ships direct), no stutters.
        terminus = (tree.master_tor if entry is None
                    else tree.boxes[entry].info.switch_id)
        assert lane[-1] == terminus
        assert all(a != b for a, b in zip(lane, lane[1:]))
    direct = {
        index for index, entry in tree.worker_entry.items()
        if entry is None
    }
    assert set(tree.direct_workers()) == direct
    seen_workers = set(direct)
    for box_id, vertex in tree.boxes.items():
        # Parent/child pointers are mutually consistent.
        if vertex.parent is not None:
            assert vertex.parent in tree.boxes
            assert box_id in tree.boxes[vertex.parent].children
        for child in vertex.children:
            assert tree.boxes[child].parent == box_id
        assert vertex.lane_to_parent
        # No duplicate replay sources: each worker feeds exactly one box.
        workers = set(vertex.direct_workers)
        assert len(vertex.direct_workers) == len(workers)
        assert not (workers & seen_workers)
        seen_workers |= workers
        assert workers == {
            index for index, entry in tree.worker_entry.items()
            if entry == box_id
        }
    assert seen_workers == set(range(n_workers))


class TestCascadingRewires:
    @given(data=st.data())
    @CHAOS
    def test_sequential_rewires_preserve_invariants(self, data):
        n_workers = data.draw(st.integers(2, 8), label="n_workers")
        hosts = data.draw(st.lists(
            st.integers(0, N_HOSTS - 1), min_size=n_workers + 1,
            max_size=n_workers + 1, unique=True), label="hosts")
        key = f"job{data.draw(st.integers(0, 999), label='key')}"
        tree = TreeBuilder(TOPO).build(
            key, f"host:{hosts[0]}",
            [f"host:{h}" for h in hosts[1:]])
        check_tree_invariants(tree, n_workers)
        n_failures = data.draw(st.integers(1, 3), label="n_failures")
        for _ in range(n_failures):
            if not tree.boxes:
                break
            victim = data.draw(
                st.sampled_from(sorted(tree.boxes)), label="victim")
            tree = rewire_failed_box(tree, victim)
            assert victim not in tree.boxes
            check_tree_invariants(tree, n_workers)


# ---------------------------------------------------------------------------
# Layer 4: boxes dying mid-request (§3.1 adoption under chaos)


def make_inflight_request(host_ids, values):
    """A live request over the shared topology with fresh box runtimes."""
    tree = TreeBuilder(TOPO).build(
        "req", "host:0", [f"host:{h}" for h in host_ids])
    function = SumFunction()
    boxes = {}
    for info in TOPO.all_boxes():
        runtime = AggBoxRuntime(info.box_id)
        runtime.register_app(sum_binding())
        boxes[info.box_id] = runtime
    return InFlightRequest(
        tree, boxes, "sum", "req", [float(v) for v in values],
        merge=lambda parts: function.merge(parts),
    )


@st.composite
def mid_request_scenario(draw):
    n_workers = draw(st.integers(3, 6))
    hosts = draw(st.lists(st.integers(1, N_HOSTS - 1),
                          min_size=n_workers, max_size=n_workers,
                          unique=True))
    values = draw(st.lists(st.integers(1, 100), min_size=n_workers,
                           max_size=n_workers))
    pre_delivered = draw(st.sets(st.integers(0, n_workers - 1)))
    victim_pick = draw(st.integers(0, 31))
    second = draw(st.sampled_from(["none", "parent", "bystander"]))
    second_first = draw(st.booleans())
    return hosts, values, pre_delivered, victim_pick, second, second_first


class TestMidRequestFailureChaos:
    """Exactness survives boxes dying while a request is in flight.

    One box fails after a random subset of workers delivered, and its
    parent or a bystander fails too, before or after it.  Each time the
    dead box's parent (or the master) adopts its children and the
    partials it held are replayed from the senders' buffers, so the
    final aggregate equals the centralised computation.
    """

    @given(scenario=mid_request_scenario())
    @CHAOS
    def test_exactness_with_two_failures_in_random_order(self, scenario):
        hosts, values, pre_delivered, victim_pick, second, second_first \
            = scenario
        request = make_inflight_request(hosts, values)
        request.announce_all()
        for index in sorted(pre_delivered):
            request.deliver_worker(index)
        boxes = sorted(request.tree.boxes)
        if not boxes:
            return  # degenerate tree: every worker ships direct
        victim = boxes[victim_pick % len(boxes)]
        parent = request.tree.boxes[victim].parent
        others = [b for b in boxes if b != victim and b != parent]
        other = None
        if second == "parent":
            other = parent
        elif second == "bystander" and others:
            other = others[victim_pick % len(others)]
        doomed = [victim] + ([other] if other is not None else [])
        if second_first:
            doomed.reverse()
        for box in doomed:
            request.fail_box(box)
        for index in range(len(hosts)):
            if index not in pre_delivered:
                request.deliver_worker(index)
        # Exactness: nothing lost, nothing double-counted.
        assert request.finish() == pytest.approx(sum(values))
        assert [log.failed_box for log in request.logs] == doomed


# ---------------------------------------------------------------------------
# Layer 5: network partitions, partial delivery and completeness labels

#: Every partition scope of the shared topology: one per pod, one per
#: rack.
PARTITION_SCOPES = sorted(
    [f"pod:{p}" for p in {TOPO.pod_of(h) for h in TOPO.hosts()}]
    + [f"rack:{tor}" for tor in TOPO.switches(TOR)])


def host(h):
    return f"host:{h}"


def ground_truth_excluded(master, workers, scopes):
    """Worker indices the scopes cut off the master, by definition.

    A scope separates two endpoints when exactly one of them is inside
    it -- computed here straight from :func:`repro.faults.in_scope`,
    independently of the platform's delivery path.
    """
    return {
        i for i, w in enumerate(workers)
        if any(in_scope(TOPO, host(w), s) != in_scope(TOPO, host(master), s)
               for s in scopes)
    }


def partition_platform(scopes, duration):
    schedule = FaultSchedule([
        FaultEvent(time=0.5, kind=NET_PARTITION, target=scope,
                   duration=duration)
        for scope in scopes
    ])
    platform = NetAggPlatform(
        TOPO, faults=PlatformFaultInjector(schedule, topo=TOPO),
        partition=True)
    platform.register_app("sum", SumFunction(), write_float,
                          lambda b: read_float(b)[0])
    return platform


def completeness_fraction(platform, request_id, master, partials):
    """Run one request; an all-workers-cut refusal counts as 0.0."""
    try:
        outcome = platform.execute_request(
            "sum", request_id, host(master), partials)
    except SubtreeUnreachable:
        return 0.0
    finally:
        assert left_behind(platform) == NOTHING
    return outcome.completeness.fraction


@st.composite
def partition_scenario(draw):
    hosts = draw(st.lists(st.integers(0, N_HOSTS - 1), min_size=4,
                          max_size=6, unique=True))
    master, workers = hosts[0], hosts[1:]
    values = [float(v) for v in draw(st.lists(
        st.integers(1, 100), min_size=len(workers),
        max_size=len(workers)))]
    scopes = draw(st.lists(st.sampled_from(PARTITION_SCOPES),
                           min_size=1, max_size=2, unique=True))
    permanent = draw(st.booleans())
    return master, workers, values, scopes, permanent


class TestPartitionChaos:
    @given(scenario=partition_scenario())
    @CHAOS
    def test_completeness_labels_never_lie(self, scenario):
        master, workers, values, scopes, permanent = scenario
        excluded = ground_truth_excluded(master, workers, scopes)
        platform = partition_platform(
            scopes, duration=0.0 if permanent else 10.0)
        platform.advance_clock(1.0)  # inside every window
        partials = [(host(w), v) for w, v in zip(workers, values)]
        try:
            outcome = platform.execute_request(
                "sum", "r0", host(master), partials)
        except SubtreeUnreachable as refusal:
            # Only a request with nothing reachable may be refused,
            # and the refusal names exactly the ground-truth set.
            assert excluded == set(range(len(workers)))
            assert set(refusal.missing_workers) == excluded
            return
        finally:
            assert left_behind(platform) == NOTHING
        comp = outcome.completeness
        assert comp is not None
        # The label matches the ground truth: exact iff nothing was
        # cut off, and the missing set is neither padded nor trimmed.
        assert set(comp.missing_workers) == excluded
        assert comp.exact == (not excluded)
        assert comp.workers_total == len(workers)
        assert comp.workers_included == len(workers) - len(excluded)
        # Exactness over the included workers: nothing lost, nothing
        # double-counted, no silent substitution for the missing.
        included_sum = sum(v for i, v in enumerate(values)
                           if i not in excluded)
        assert outcome.value == included_sum
        assert len(outcome.events_of_kind("partition")) == len(excluded)

    @given(scenario=partition_scenario())
    @CHAOS
    def test_completeness_monotone_in_surviving_workers(self, scenario):
        master, workers, values, scopes, permanent = scenario
        if len(scopes) < 2:
            extra = next(s for s in PARTITION_SCOPES if s not in scopes)
            scopes = scopes + [extra]
        partials = [(host(w), v) for w, v in zip(workers, values)]
        fractions = []
        for cut in (scopes[:1], scopes):  # widening cuts
            platform = partition_platform(
                cut, duration=0.0 if permanent else 10.0)
            platform.advance_clock(1.0)
            fractions.append(completeness_fraction(
                platform, "r0", master, partials))
        # Cutting more scopes can only shrink the surviving-worker
        # set, so completeness must not increase.
        assert fractions[1] <= fractions[0] + 1e-12

    @given(scenario=partition_scenario())
    @CHAOS
    def test_post_heal_requests_are_exact(self, scenario):
        master, workers, values, scopes, _ = scenario
        platform = partition_platform(scopes, duration=1.0)
        partials = [(host(w), v) for w, v in zip(workers, values)]
        platform.advance_clock(1.0)
        try:
            platform.execute_request("sum", "r0", host(master), partials)
        except SubtreeUnreachable:
            pass  # everything cut during the window -- legal
        assert left_behind(platform) == NOTHING
        # Far beyond every window (probe retries burn bounded clock).
        platform.advance_clock(60.0)
        outcome = platform.execute_request(
            "sum", "r1", host(master), partials)
        assert left_behind(platform) == NOTHING
        assert outcome.completeness is not None
        assert outcome.completeness.exact
        assert outcome.value == sum(values)
        assert not outcome.events_of_kind("partition")
