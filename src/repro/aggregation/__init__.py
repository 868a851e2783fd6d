"""Aggregation strategies: how a partition/aggregation job's partial
results travel from workers to the master.

The paper compares four (§2.2, §4.1):

- ``rack`` -- rack-level aggregation: one server per rack collects the
  rack's partial results and ships the aggregate to the master;
- ``binary`` -- a d-ary tree of *servers* with d=2 (edge-based);
- ``chain`` -- the degenerate d=1 server tree;
- ``netagg`` -- on-path aggregation at agg boxes attached to switches.

Plus ``none`` (workers ship raw partial results straight to the master),
which we add as the no-aggregation reference.

A strategy turns a :class:`repro.workload.AggJob` into
:class:`repro.netsim.FlowSpec` segment flows with streaming dependencies;
every aggregation point forwards ``alpha`` times the bytes it receives
(the paper's aggregation output ratio, applied per hop: "only a fraction
of the incoming traffic is forwarded at each hop").
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.aggregation.base": ["AggregationStrategy", "plan_background"],
    "repro.aggregation.edge": [
        "BinaryTreeStrategy", "ChainStrategy", "DAryTreeStrategy",
        "NoAggregationStrategy", "RackLevelStrategy",
    ],
    "repro.aggregation.onpath": [
        "NetAggStrategy", "deploy_boxes", "deploy_box_budget",
    ],
})
