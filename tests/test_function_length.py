"""A ceiling on function length in the modules that were split up to
get under it: the flow simulator's run loop, the platform's request
path and the testbed emulator's two drivers.  A function over the
ceiling is a sign that state shared through closures or flags is
growing back; give it an object instead (``_Run`` in the simulator,
``_Request`` in the platform, ``_SolrRun`` and ``_HadoopRun`` in the
drivers)."""

import ast
from pathlib import Path

import pytest

import repro

MAX_LINES = 60
SRC = Path(repro.__file__).parent


@pytest.mark.parametrize("module", ["netsim/simulator.py",
                                    "core/platform.py",
                                    "cluster/solr_driver.py",
                                    "cluster/hadoop_driver.py"])
def test_no_function_over_the_ceiling(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    too_long = {
        f"{node.name} (line {node.lineno})": node.end_lineno - node.lineno + 1
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno - node.lineno + 1 > MAX_LINES
    }
    assert not too_long, too_long
