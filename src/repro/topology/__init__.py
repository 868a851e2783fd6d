"""Data-centre topologies with agg-box attachment points.

- :class:`repro.topology.base.Topology` -- generic node/link graph with
  equal-cost shortest-path enumeration and agg-box bookkeeping;
- :func:`repro.topology.threetier.three_tier` -- the paper's three-tier
  multi-rooted topology (ToR / aggregation / core), parameterised by
  over-subscription and link rates;
- :func:`repro.topology.fattree.fat_tree` -- a k-ary fat-tree, used by the
  multi-tree ablation.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.topology.base": ["AggBoxInfo", "Node", "Topology"],
    "repro.topology.fattree": ["fat_tree"],
    "repro.topology.threetier": ["ThreeTierParams", "three_tier"],
})
