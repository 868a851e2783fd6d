"""Closed-form and property tests for max-min fair allocation.

The closed-form cases run against the from-scratch reference
(``max_min_rates_py``) and, where numpy is importable, against the numpy
backend ``FlowSim`` solves with (``VectorizedMaxMin``, loaded from
scratch) -- the allocation is unique, so both must hit the same numbers.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.fairness import max_min_rates, max_min_rates_py
from repro.netsim.vectorized import HAVE_NUMPY, VectorizedMaxMin


def vectorized_rates(flow_links, capacities, rate_caps=None):
    """``max_min_rates``'s signature over a fresh numpy solver."""
    solver = VectorizedMaxMin(capacities)
    for flow_id, links in flow_links.items():
        solver.add_flow(flow_id, links,
                        rate_cap=(rate_caps or {}).get(flow_id))
    return dict(solver.rates())


@pytest.fixture(params=[max_min_rates_py, vectorized_rates],
                ids=["python", "numpy"])
def solver(request):
    if request.param is vectorized_rates and not HAVE_NUMPY:
        pytest.skip("numpy not installed")
    return request.param


class TestBasics:
    def test_empty(self, solver):
        assert solver({}, {}) == {}

    def test_single_flow_gets_full_link(self, solver):
        rates = solver({"f": ["l"]}, {"l": 10.0})
        assert rates["f"] == pytest.approx(10.0)

    def test_equal_share(self, solver):
        rates = solver({"a": ["l"], "b": ["l"]}, {"l": 10.0})
        assert rates["a"] == pytest.approx(5.0)
        assert rates["b"] == pytest.approx(5.0)

    def test_classic_three_flow_example(self, solver):
        # a uses l1 only, c uses l2 only, b crosses both; l2 is tighter.
        rates = solver(
            {"a": ["l1"], "b": ["l1", "l2"], "c": ["l2"]},
            {"l1": 10.0, "l2": 6.0},
        )
        assert rates["b"] == pytest.approx(3.0)
        assert rates["c"] == pytest.approx(3.0)
        assert rates["a"] == pytest.approx(7.0)

    def test_flow_without_links_is_unbounded(self, solver):
        rates = solver({"free": []}, {})
        assert rates["free"] == math.inf

    def test_unknown_link_raises(self, solver):
        with pytest.raises(KeyError):
            solver({"f": ["nope"]}, {"l": 1.0})


class TestRateCaps:
    def test_cap_binds(self, solver):
        rates = solver({"f": ["l"]}, {"l": 10.0}, {"f": 4.0})
        assert rates["f"] == pytest.approx(4.0)

    def test_cap_releases_bandwidth_to_others(self, solver):
        rates = solver(
            {"a": ["l"], "b": ["l"]}, {"l": 10.0}, {"a": 2.0}
        )
        assert rates["a"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(8.0)

    def test_linkless_flow_with_cap(self, solver):
        rates = solver({"f": []}, {}, {"f": 3.0})
        assert rates["f"] == pytest.approx(3.0)

    def test_loose_cap_does_not_bind(self, solver):
        rates = solver({"f": ["l"]}, {"l": 5.0}, {"f": 100.0})
        assert rates["f"] == pytest.approx(5.0)


class TestMaxMinProperties:
    def test_multi_level_bottlenecks(self, solver):
        # l1 shared by a,b (cap 4); l2 shared by b,c (cap 10).
        # Max-min: a=b=2 (l1 level), then c fills l2: c=8.
        rates = solver(
            {"a": ["l1"], "b": ["l1", "l2"], "c": ["l2"]},
            {"l1": 4.0, "l2": 10.0},
        )
        assert rates["a"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(2.0)
        assert rates["c"] == pytest.approx(8.0)

    def test_repeated_link_ids_in_path_charged_once(self, solver):
        # A path that repeats a link charges it once (set semantics).
        rates = solver({"f": ["l", "l"]}, {"l": 10.0})
        assert rates["f"] == pytest.approx(10.0)


def _flow_network(draw_links, draw_flows):
    """Build strategies for random small networks."""
    return draw_links, draw_flows


@st.composite
def random_instance(draw):
    n_links = draw(st.integers(1, 6))
    links = {f"l{i}": draw(st.floats(0.5, 100.0)) for i in range(n_links)}
    n_flows = draw(st.integers(1, 12))
    flows = {}
    caps = {}
    for i in range(n_flows):
        path_len = draw(st.integers(0, min(4, n_links)))
        path = draw(
            st.lists(st.sampled_from(sorted(links)), min_size=path_len,
                     max_size=path_len, unique=True)
        )
        flows[f"f{i}"] = path
        if draw(st.booleans()):
            caps[f"f{i}"] = draw(st.floats(0.1, 50.0))
        elif not path:
            caps[f"f{i}"] = draw(st.floats(0.1, 50.0))
    return flows, links, caps


class TestPropertyBased:
    @given(random_instance())
    @settings(max_examples=200, deadline=None)
    def test_no_link_overloaded(self, instance):
        flows, links, caps = instance
        rates = max_min_rates(flows, links, caps)
        for link, capacity in links.items():
            load = sum(
                rates[f] for f, path in flows.items() if link in path
            )
            assert load <= capacity * (1 + 1e-6)

    @given(random_instance())
    @settings(max_examples=200, deadline=None)
    def test_caps_respected(self, instance):
        flows, links, caps = instance
        rates = max_min_rates(flows, links, caps)
        for flow_id, cap in caps.items():
            assert rates[flow_id] <= cap * (1 + 1e-6)

    @given(random_instance())
    @settings(max_examples=200, deadline=None)
    def test_rates_positive(self, instance):
        flows, links, caps = instance
        rates = max_min_rates(flows, links, caps)
        for flow_id in flows:
            assert rates[flow_id] > 0

    @given(random_instance())
    @settings(max_examples=100, deadline=None)
    def test_pareto_efficiency_on_links(self, instance):
        """Every flow is blocked by a saturated link or its cap (work
        conservation): no flow could be raised without hurting another."""
        flows, links, caps = instance
        rates = max_min_rates(flows, links, caps)
        loads = {
            link: sum(rates[f] for f, path in flows.items() if link in path)
            for link in links
        }
        for flow_id, path in flows.items():
            if rates[flow_id] == math.inf:
                continue
            at_cap = flow_id in caps and rates[flow_id] >= caps[flow_id] * (1 - 1e-6)
            on_saturated = any(
                loads[link] >= links[link] * (1 - 1e-6) for link in path
            )
            assert at_cap or on_saturated
