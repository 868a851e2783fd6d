"""Deployment cost model for the feasibility study (§2.4, Fig. 3)."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.cost.model": [
        "CostReport", "PriceList", "netagg_cost", "upgrade_cost",
    ],
})
