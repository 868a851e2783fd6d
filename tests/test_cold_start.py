"""Cold start: what each entry point imports in a fresh interpreter.

Every fresh interpreter pays for the import graph: each ``perf/``
child, every ``python -m repro`` command, ``repro serve`` and the
examples.  A package ``__init__`` re-exports its names lazily, so
importing one module loads the layers that module uses and no others.
These tests import one entry point in a child interpreter and pin what
it may not load, and how many ``repro`` modules it may load in all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).parents[1])

_CENSUS = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""

#: The layers the testbed emulator (Figs. 16-24) has no use for.
NOT_EMULATOR = ("repro.core", "repro.topology", "repro.faults",
                "repro.workload", "repro.aggregation",
                "repro.netsim.simulator", "numpy")

#: entry point -> (most repro modules it may load, packages it may not load)
ENTRIES = {
    "repro.cluster.solr_driver": (15, NOT_EMULATOR),
    "repro.cluster.hadoop_driver": (20, NOT_EMULATOR),
    "repro.serve.http": (None, ("repro.experiments",)),
    "repro.cli": (31, ("repro.serve", "repro.cluster",
                       "repro.core.platform")),
}


_SERVICE_CENSUS = """
import json, sys
from repro.serve.service import AggregationService, ServeConfig
AggregationService(ServeConfig())
print(json.dumps(sorted(sys.modules)))
"""


def _census(script: str, *args: str):
    """Every module a fresh interpreter holds after running ``script``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after_import(module: str):
    """Every module a fresh interpreter holds after importing ``module``."""
    return _census(_CENSUS, module)


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_point_loads_only_its_layers(entry):
    most, forbidden = ENTRIES[entry]
    loaded = loaded_after_import(entry)
    repro_modules = [m for m in loaded if _within(m, "repro")]
    stray = [m for m in loaded
             if any(_within(m, package) for package in forbidden)]
    assert not stray, f"{entry} loads {stray}"
    if most is not None:
        assert len(repro_modules) <= most, (
            f"{entry} loads {len(repro_modules)} repro modules: "
            f"{repro_modules}")


def test_building_the_service_loads_no_experiment():
    """``ServeConfig``'s default topology is named in the topology
    layer, so a service built on it never reaches for the registry."""
    loaded = _census(_SERVICE_CENSUS)
    stray = [m for m in loaded if _within(m, "repro.experiments")]
    assert not stray, stray
