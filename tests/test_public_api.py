"""Public-API smoke tests: imports, exports and paper-scale builds."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.units",
    "repro.netsim",
    "repro.netsim.engine",
    "repro.netsim.fairness",
    "repro.netsim.incremental",
    "repro.netsim.network",
    "repro.netsim.routing",
    "repro.netsim.simulator",
    "repro.netsim.metrics",
    "repro.topology",
    "repro.topology.base",
    "repro.topology.threetier",
    "repro.topology.fattree",
    "repro.workload",
    "repro.workload.synthetic",
    "repro.workload.placement",
    "repro.workload.stragglers",
    "repro.aggregation",
    "repro.aggregation.base",
    "repro.aggregation.edge",
    "repro.aggregation.onpath",
    "repro.core",
    "repro.core.tree",
    "repro.core.shim",
    "repro.core.platform",
    "repro.core.failure",
    "repro.core.straggler",
    "repro.core.multicast",
    "repro.aggbox",
    "repro.aggbox.functions",
    "repro.aggbox.localtree",
    "repro.aggbox.scheduler",
    "repro.aggbox.box",
    "repro.aggbox.isolation",
    "repro.wire",
    "repro.wire.serializer",
    "repro.wire.framing",
    "repro.wire.records",
    "repro.apps.solr",
    "repro.apps.hadoop",
    "repro.cluster",
    "repro.cost",
    "repro.faults",
    "repro.faults.schedule",
    "repro.faults.retry",
    "repro.faults.inject",
    "repro.experiments",
    "repro.bench",
    "repro.serve",
    "repro.serve.service",
    "repro.serve.stats",
    "repro.serve.loadgen",
    "repro.serve.http",
    "repro.workload.openloop",
]

EXPERIMENT_MODULES = [
    "fig02_processing_rate", "fig03_cost", "fig06_fct_cdf",
    "fig07_nonagg_cdf", "fig08_output_ratio", "fig09_link_traffic",
    "fig10_agg_fraction", "fig11_oversub", "fig12_partial",
    "fig13_10g_scaleout", "fig14_stragglers", "fig15_localtree",
    "fig16_solr_throughput", "fig17_solr_latency", "fig18_solr_ratio",
    "fig19_solr_tworack", "fig20_solr_scaleout", "fig21_solr_scaleup",
    "fig22_hadoop_jobs", "fig23_hadoop_ratio", "fig24_hadoop_datasize",
    "fig25_fair_fixed", "fig26_fair_adaptive", "tab01_loc",
    "ablation_trees", "ablation_placement", "ablation_streaming",
    "ablation_routing", "ablation_multicast", "fig_failures",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_imports(package):
    module = importlib.import_module(package)
    assert module is not None


@pytest.mark.parametrize("package", [
    "repro", "repro.netsim", "repro.topology", "repro.workload",
    "repro.aggregation", "repro.core", "repro.aggbox", "repro.wire",
    "repro.cluster", "repro.cost", "repro.faults", "repro.experiments",
    "repro.serve",
])
def test_dunder_all_resolves(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("name", EXPERIMENT_MODULES)
def test_experiment_modules_expose_run_and_main(name):
    """A figure module exposes the registered ``run``; its command-line
    entry point is the package's (``python -m repro run <name>``), so
    it carries no ``main()`` of its own."""
    from repro.experiments import load

    module = importlib.import_module(f"repro.experiments.{name}")
    assert callable(module.run)
    assert load(name).run is module.run
    assert not hasattr(module, "main")


def test_experiment_api_at_top_level():
    """The experiment runner and scale presets re-export from the root."""
    from repro import BENCH, DEFAULT, PAPER, QUICK, SimScale, simulate

    for preset in (QUICK, BENCH, DEFAULT, PAPER):
        assert isinstance(preset, SimScale)
    assert callable(simulate)


def test_version():
    assert repro.__version__


def test_fault_api_at_top_level():
    """Fault *schedules* are public; per-layer injectors are not."""
    from repro import FaultEvent, FaultSchedule, RetryPolicy

    schedule = FaultSchedule([FaultEvent(1.0, "box-crash", "box:tor:0:0")])
    assert len(schedule) == 1
    assert RetryPolicy().worst_case_clock() > 0


def test_serve_api_at_top_level():
    """The serving layer's entry points re-export from the root."""
    from repro import (
        AggregationService,
        OpenLoopParams,
        ServeConfig,
        TenantPolicy,
        run_loadgen,
        serve_forever,
    )

    assert callable(run_loadgen) and callable(serve_forever)
    assert callable(AggregationService)
    assert TenantPolicy().slo > 0
    assert ServeConfig().admission
    assert OpenLoopParams().tenants >= 1


def test_stable_surface_no_leaks():
    """``repro.__all__`` is the whole contract: every name resolves,
    injectors moved out, and no internal name leaks to the top level
    as an eagerly-bound public attribute."""
    for name in repro.__all__:
        assert getattr(repro, name) is not None, f"repro.{name} missing"
    # Per-layer fault injectors are submodule API now, not top-level.
    for internal in ("SimFaultInjector", "PlatformFaultInjector"):
        with pytest.raises(AttributeError):
            getattr(repro, internal)
    # Everything public and eagerly bound on the package (other than
    # submodules Python inserts on import) must be declared in __all__.
    import types

    allowed = set(repro.__all__) | {"annotations"}
    leaked = [
        name for name, value in vars(repro).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and name not in allowed
    ]
    assert not leaked, f"undeclared public names on repro: {leaked}"


def test_paper_scale_topology_builds():
    """The paper's 1,024-server topology constructs quickly."""
    from repro.aggregation import deploy_boxes
    from repro.topology import ThreeTierParams, three_tier

    params = ThreeTierParams()
    topo = three_tier(params)
    assert len(topo.hosts()) == 1024
    n_boxes = deploy_boxes(topo)
    assert n_boxes == 64 + 16 + 8
    paths = topo.equal_cost_paths("host:0", "host:1023")
    assert len(paths) == 2 * 8 * 2  # aggr x core x aggr lanes


def test_paper_scale_tree_construction():
    from repro.aggregation import deploy_boxes
    from repro.core.tree import TreeBuilder
    from repro.topology import ThreeTierParams, three_tier

    topo = three_tier(ThreeTierParams())
    deploy_boxes(topo)
    builder = TreeBuilder(topo)
    workers = [f"host:{i * 16}" for i in range(1, 40)]
    trees = builder.build_many("big-job", "host:0", workers, 4)
    assert len(trees) == 4
    for tree in trees:
        assert len(tree.roots()) >= 1
        assert set(tree.worker_entry) == set(range(len(workers)))
