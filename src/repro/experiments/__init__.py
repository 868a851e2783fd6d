"""One module per paper figure/table (the per-experiment index of
DESIGN.md), plus the experiment registry.

Every figure module registers one canonical entry point with the
:func:`register` decorator::

    @register("fig08")
    def run(scale: SimScale = DEFAULT, seed: int = 1) -> ExperimentResult:
        ...

The CLI, the benchmark harness and the tests all go through the
registry -- :func:`load` imports a module on demand and returns its
:class:`Experiment` record, :func:`all_experiments` iterates the whole
catalogue in figure order, and :func:`resolve` maps short names
(``fig08``) to module names (``fig08_output_ratio``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro import _lazy_exports
from repro.experiments.common import ExperimentResult

#: Ordered catalogue of experiment modules (figure order, then extras).
MODULES: List[str] = [
    "fig02_processing_rate",
    "fig03_cost",
    "fig06_fct_cdf",
    "fig07_nonagg_cdf",
    "fig08_output_ratio",
    "fig09_link_traffic",
    "fig10_agg_fraction",
    "fig11_oversub",
    "fig12_partial",
    "fig13_10g_scaleout",
    "fig14_stragglers",
    "fig15_localtree",
    "fig16_solr_throughput",
    "fig17_solr_latency",
    "fig18_solr_ratio",
    "fig19_solr_tworack",
    "fig20_solr_scaleout",
    "fig21_solr_scaleup",
    "fig22_hadoop_jobs",
    "fig23_hadoop_ratio",
    "fig24_hadoop_datasize",
    "fig25_fair_fixed",
    "fig26_fair_adaptive",
    "tab01_loc",
    "ablation_trees",
    "ablation_placement",
    "ablation_streaming",
    "ablation_routing",
    "ablation_multicast",
    "ablation_reducers",
    "ablation_colocation",
    "ablation_fattree",
    "ablation_arrivals",
    "fig_failures",
    "fig_overload",
    "fig_selfheal",
    "fig_serve",
    "fig_partition",
    "fig_burnrate",
]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: its names, summary and entry point."""

    name: str       #: short name used on the command line, e.g. ``fig08``
    module: str     #: module name, e.g. ``fig08_output_ratio``
    summary: str    #: first line of the module docstring (or override)
    run: Callable[..., ExperimentResult]  #: run(scale=..., seed=...)


_REGISTRY: Dict[str, Experiment] = {}


def register(name: str, summary: Optional[str] = None,
             ) -> Callable[[Callable[..., ExperimentResult]],
                           Callable[..., ExperimentResult]]:
    """Class the decorated function as an experiment entry point.

    ``name`` is the short CLI name (``fig08``); the registry key is the
    defining module's name.  The one-line summary defaults to the first
    line of the module docstring.

    The registered ``run`` refuses keywords its signature does not
    name: figure modules used to take per-module tuning knobs
    (``run(clients=..., duration=...)``), and such legacy calls fail
    with a migration hint to ``run(scale=..., seed=...)`` (pinned by
    ``tests/test_experiments.py::TestLegacyEntrypoints``).
    """

    def decorate(fn: Callable[..., ExperimentResult]
                 ) -> Callable[..., ExperimentResult]:
        module = fn.__module__.rsplit(".", 1)[-1]
        text = summary
        if text is None:
            doc = (sys.modules[fn.__module__].__doc__ or "").strip()
            text = doc.splitlines()[0] if doc else ""
        accepted = set(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def run(*args: object, **kwargs: object) -> ExperimentResult:
            legacy = sorted(set(kwargs) - accepted)
            if legacy:
                raise TypeError(
                    f"{module}.run no longer accepts ad-hoc keyword "
                    f"arguments ({', '.join(legacy)}); use "
                    "run(scale=..., seed=...) with a SimScale preset "
                    "(QUICK/BENCH/DEFAULT/PAPER)")
            return fn(*args, **kwargs)

        _REGISTRY[module] = Experiment(
            name=name, module=module, summary=text, run=run)
        return run

    return decorate


def load(name: str) -> Experiment:
    """Import an experiment module (if needed) and return its record."""
    if name not in MODULES:
        raise KeyError(f"unknown experiment {name!r}")
    if name not in _REGISTRY:
        importlib.import_module(f"repro.experiments.{name}")
    if name not in _REGISTRY:
        raise RuntimeError(
            f"module repro.experiments.{name} defines no @register'd run()")
    return _REGISTRY[name]


def all_experiments() -> Iterator[Experiment]:
    """All experiments, in catalogue order (imports lazily)."""
    for name in MODULES:
        yield load(name)


def resolve(name: str) -> str:
    """Map a short or prefix name (``fig08``, ``tab01``) to its module.

    Raises ``KeyError`` for unknown names and ``ValueError`` for
    ambiguous prefixes.
    """
    if name in MODULES:
        return name
    matches = [m for m in MODULES if m.startswith(name)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"unknown experiment {name!r}")
    raise ValueError(f"ambiguous experiment {name!r}: {matches}")


def unknown_experiment_message(name: str) -> str:
    """The error text for a name :func:`resolve` rejects.

    Lists every registered experiment so a typo against the registry is
    a one-glance fix instead of a trip through ``python -m repro list``.
    """
    catalogue = "\n".join(f"  {m}" for m in MODULES)
    return (f"unknown experiment {name!r}; registered experiments:\n"
            f"{catalogue}")


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.experiments.common": [
        "ExperimentResult", "SimScale", "simulate",
        "QUICK", "BENCH", "DEFAULT", "PAPER",
    ],
})
__all__ += ["Experiment", "MODULES", "all_experiments", "load", "register",
            "resolve", "unknown_experiment_message"]
