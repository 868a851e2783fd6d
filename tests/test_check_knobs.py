"""tools/check_knobs.py: the census of who sets each policy knob."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[1]
          / "tools" / "check_knobs.py")


def load():
    spec = importlib.util.spec_from_file_location("check_knobs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: A small owner table with the real shapes: dataclasses, the platform,
#: whose knobs are constructor parameters and share names with
#: ``ServeConfig`` fields, and a method owner sharing ``seed`` with
#: ``RetryPolicy``.
KNOBS = {
    "RetryPolicy": ["decorrelated", "seed"],
    "TenantPolicy": ["rate", "burst", "slo"],
    "ServeConfig": ["default_policy", "faults", "partition"],
    "NetAggPlatform": ["topo", "faults", "partition"],
    "FaultSchedule.generate": ["seed", "duration"],
}


def test_every_knob_is_set_or_listed():
    proc = subprocess.run([sys.executable, str(SCRIPT)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "check_knobs: ok" in proc.stderr


def test_census_reads_the_owners_from_the_source():
    knobs = load().owner_knobs()
    assert knobs["TenantPolicy"] == ["rate", "burst", "slo"]
    assert knobs["NetAggPlatform"] == [
        "topo", "faults", "retry", "breakers", "admission", "partition"]
    assert "breaker" not in knobs["ServeConfig"]
    for gone in ("OverloadConfig", "AdmissionPolicy", "OverloadPolicy",
                 "BreakerPolicy"):
        assert gone not in knobs
    assert knobs["RetryPolicy"] == ["decorrelated", "seed"]
    # The perf harness still reads ``config.k``: a read-only property
    # over the constant, not a knob.
    assert "k" not in knobs["ServeConfig"]
    from repro.serve.service import TOP_K, ServeConfig
    assert ServeConfig().k == TOP_K == 10
    # The fault plane: the generator's draws and the injectors.
    assert knobs["FaultSchedule.generate"] == [
        "seed", "duration", "boxes", "links", "workers", "box_crashes",
        "link_flaps", "degradations", "churns", "overloads", "sheds",
        "permanent_fraction"]
    assert knobs["SimFaultInjector"] == ["topo", "schedule"]
    assert knobs["PlatformFaultInjector"] == ["schedule", "topo"]
    # The testbed emulator: what the figures vary.  Its hardware rates
    # and core counts and the Solr query costs are module constants.
    assert knobs["TestbedConfig"] == [
        "racks", "backends_per_rack", "box_cores", "boxes_per_rack"]
    assert knobs["SolrEmulationParams"] == [
        "n_clients", "use_netagg", "alpha", "agg_cpu_factor", "duration",
        "seed"]
    # The flow layer: every bottleneck is a link, so a flow has no rate
    # cap.  ``perf/sim.py`` still reads ``spec.rate_cap``: a read-only
    # property that answers None, not a knob.
    assert knobs["FlowSpec"] == [
        "flow_id", "size", "path", "start_time", "job_id", "kind",
        "aggregatable", "children"]
    assert "rate_cap" not in knobs["FlowSpec"]
    from repro.netsim.simulator import FlowSpec
    assert FlowSpec("f", 1.0).rate_cap is None


def test_the_optimizer_has_no_owner():
    # The self-healing loop is two functions over the caller's feeds:
    # its thresholds are constants, and it has no class to configure.
    check_knobs = load()
    assert not any(module.startswith("core/optimizer")
                   for module, _ in check_knobs.OWNERS)
    rows = check_knobs.census()
    assert len(rows) == 54
    assert sum(1 for _, sites in rows if not sites) == 2


def test_test_only_table_stays_short():
    # Every other unset knob became a constant; a sixth test-only knob
    # must be argued for, not slipped in.
    test_only = load().TEST_ONLY
    assert len(test_only) <= 5
    assert all(reason.strip() for reason in test_only.values())


@pytest.mark.parametrize("source, credited", [
    ("TenantPolicy(rate=2.0)\n", {"TenantPolicy.rate"}),
    ("faults.RetryPolicy(True, 2)\n",
     {"RetryPolicy.decorrelated", "RetryPolicy.seed"}),
    ("NetAggPlatform(topo, faults=f)\n",
     {"NetAggPlatform.topo", "NetAggPlatform.faults"}),
    ("replace(p, slo=0.1)\n", {"TenantPolicy.slo"}),
    ("dataclasses.replace(p, rate=1.0)\n", {"TenantPolicy.rate"}),
    ("replace(p, rate=1.0, slo=0.1)\n",
     {"TenantPolicy.rate", "TenantPolicy.slo"}),
    # Not setters: defaults, splats, other classes, the platform via
    # replace (``faults`` credits only the dataclass), and keywords no
    # owner has.
    ("TenantPolicy()\n", set()),
    ("TenantPolicy(**overrides)\n", set()),
    ("TenantPolicy(*args)\n", set()),
    ("BucketPolicy(rate=1.0)\n", set()),
    ("def f(rate=1.0):\n    pass\n", set()),
    ("replace(p, faults=None)\n", {"ServeConfig.faults"}),
    ("replace(p, **overrides)\n", set()),
    ("TenantPolicy(ratee=1.0)\n", set()),
    ("FaultSchedule.generate(1, duration=2.0)\n",
     {"FaultSchedule.generate.seed", "FaultSchedule.generate.duration"}),
    ("other.generate(seed=1)\n", set()),
    # ``seed`` is also a ``FaultSchedule.generate`` parameter: replace
    # credits only the dataclass.
    ("replace(p, seed=1)\n", {"RetryPolicy.seed"}),
])
def test_setters(source, credited):
    found = load().setters_in(source, KNOBS, where="m.py")
    assert set(found) == credited
    assert all(sites == ["m.py:1"] for sites in found.values())


def test_problems_name_unset_stale_and_unknown_entries(monkeypatch):
    check_knobs = load()
    monkeypatch.setattr(check_knobs, "TEST_ONLY", {
        "A.stale": "listed, but a caller sets it now",
        "A.listed": "only tests set it",
        "A.ghost": "no such knob",
    })
    rows = [("A.unset", []), ("A.stale", ["src/m.py:3"]),
            ("A.listed", []), ("A.set", ["src/m.py:4"])]
    found = check_knobs.problems(rows)
    assert [line.split(":")[0] for line in found] == [
        "A.unset", "A.stale", "A.ghost"]
    assert "src/m.py:3" in found[1]
