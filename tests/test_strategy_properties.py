"""Property-based invariants over all aggregation strategies.

For random jobs on random (small) topologies, every strategy must:

- put each worker's raw partial result on the wire exactly once per
  aggregation tree (conservation at the leaves);
- never let an aggregation point forward more bytes than it received
  plus its local data;
- bound every aggregate by the job's dictionary (alpha * total);
- produce flow plans the simulator can run to completion, with job
  completion no earlier than the slowest worker's ideal transfer.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import (
    BinaryTreeStrategy,
    ChainStrategy,
    NetAggStrategy,
    NoAggregationStrategy,
    RackLevelStrategy,
    deploy_boxes,
)
from repro.netsim import FlowSim
from repro.netsim.routing import EcmpRouter
from repro.topology import ThreeTierParams, three_tier
from repro.units import MB
from repro.workload import AggJob

STRATEGIES = [
    NoAggregationStrategy(),
    RackLevelStrategy(),
    BinaryTreeStrategy(),
    ChainStrategy(),
    NetAggStrategy(),
]

TOPO_PARAMS = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
N_HOSTS = TOPO_PARAMS.n_hosts


@st.composite
def random_job(draw):
    n_workers = draw(st.integers(1, 8))
    hosts = draw(st.lists(
        st.integers(0, N_HOSTS - 1), min_size=n_workers + 1,
        max_size=n_workers + 1, unique=True,
    ))
    master, worker_hosts = hosts[0], hosts[1:]
    sizes = draw(st.lists(
        st.floats(0.1 * MB, 5 * MB), min_size=n_workers,
        max_size=n_workers,
    ))
    alpha = draw(st.sampled_from([0.05, 0.1, 0.3, 0.7, 1.0]))
    n_trees = draw(st.integers(1, 2))
    return AggJob(
        "j",
        f"host:{master}",
        tuple((f"host:{h}", s) for h, s in zip(worker_hosts, sizes)),
        alpha=alpha,
        n_trees=n_trees,
    )


def make_topo():
    topo = three_tier(TOPO_PARAMS)
    deploy_boxes(topo)
    return topo


def plan(strategy, job, topo):
    return strategy.plan_job(job, topo, EcmpRouter())


class TestStrategyInvariants:
    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.name)
    @given(job=random_job())
    @settings(max_examples=30, deadline=None)
    def test_worker_bytes_on_wire_once(self, strategy, job):
        topo = make_topo()
        specs = plan(strategy, job, topo)
        worker_bytes = sum(
            s.size for s in specs if s.kind == "worker"
            and not s.children
        )
        # Leaf flows carry raw partial results; NetAgg splits them over
        # trees but totals must be preserved.  Edge strategies designate
        # some workers as aggregators whose data never crosses the wire.
        assert worker_bytes <= job.total_bytes + 1e-6

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.name)
    @given(job=random_job())
    @settings(max_examples=30, deadline=None)
    def test_aggregates_bounded_by_dictionary(self, strategy, job):
        topo = make_topo()
        specs = plan(strategy, job, topo)
        dictionary = job.alpha * job.total_bytes
        for spec in specs:
            if spec.kind in ("internal", "result") and spec.children:
                assert spec.size <= dictionary * (1 + 1e-9) + 1e-9 or \
                    spec.size <= job.total_bytes + 1e-6

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.name)
    @given(job=random_job())
    @settings(max_examples=20, deadline=None)
    def test_plans_simulate_to_completion(self, strategy, job):
        topo = make_topo()
        specs = plan(strategy, job, topo)
        sim = FlowSim(topo.network)
        sim.add_flows(specs)
        result = sim.run()
        assert len(result.records) == len(specs)
        assert all(math.isfinite(r.fct) and r.fct >= 0
                   for r in result.records.values())

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.name)
    @given(job=random_job())
    @settings(max_examples=20, deadline=None)
    def test_job_completion_at_least_ideal(self, strategy, job):
        """No strategy can beat the slowest worker's solo transfer of
        its own raw data over its 1 Gbps edge link."""
        topo = make_topo()
        specs = plan(strategy, job, topo)
        sim = FlowSim(topo.network)
        sim.add_flows(specs)
        result = sim.run()
        completion = max(r.completion_time for r in result.records.values()
                         if r.spec.job_id == "j")
        edge = TOPO_PARAMS.edge_rate
        slowest_leaf = max(
            (s.size for s in specs if not s.children and s.path),
            default=0.0,
        )
        assert completion >= slowest_leaf / edge - 1e-9

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.name)
    @given(job=random_job())
    @settings(max_examples=20, deadline=None)
    def test_flow_ids_unique(self, strategy, job):
        topo = make_topo()
        specs = plan(strategy, job, topo)
        ids = [s.flow_id for s in specs]
        assert len(ids) == len(set(ids))

    @given(job=random_job())
    @settings(max_examples=20, deadline=None)
    def test_netagg_dependencies_acyclic_and_internal(self, job):
        topo = make_topo()
        specs = plan(NetAggStrategy(), job, topo)
        by_id = {s.flow_id: s for s in specs}
        for spec in specs:
            for child in spec.children:
                assert child in by_id

        state = {}

        def visit(fid):
            if state.get(fid) == 1:
                return
            assert state.get(fid) != 0, "cycle!"
            state[fid] = 0
            for child in by_id[fid].children:
                visit(child)
            state[fid] = 1

        for fid in by_id:
            visit(fid)
