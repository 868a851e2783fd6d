"""Golden tables: every registered experiment's QUICK / seed-1 table,
pinned by digest so a refactor cannot shift a figure unnoticed.

``tests/golden/quick_seed1.json`` maps experiment module name ->
sha256 of ``ExperimentResult.to_text()``.  The digests are identical
with and without numpy, so one manifest serves both CI legs: the solver
backends differ in the last bits (``bincount`` adds in its own order)
but agree after the tables' rounding.

When a table is *meant* to move, regenerate the manifest and commit the
diff alongside the change that explains it::

    PYTHONPATH=src python -m tests.test_golden
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments import MODULES, QUICK, load

MANIFEST = pathlib.Path(__file__).parent / "golden" / "quick_seed1.json"

#: tab01_loc counts this repository's own source lines, so its table
#: moves with every PR by construction; it is pinned by test_experiments.
EXCLUDED = ("tab01_loc",)

GOLDEN_MODULES = [name for name in MODULES if name not in EXCLUDED]


def table_digest(module: str) -> str:
    text = load(module).run(scale=QUICK, seed=1).to_text()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_manifest_covers_the_registry():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(GOLDEN_MODULES)


@pytest.mark.parametrize("module", GOLDEN_MODULES)
def test_table_matches_golden(module):
    golden = json.loads(MANIFEST.read_text())
    assert table_digest(module) == golden[module], (
        f"{module}: QUICK/seed-1 table moved; if intended, regenerate "
        "with `PYTHONPATH=src python -m tests.test_golden`")


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(
        {name: table_digest(name) for name in GOLDEN_MODULES},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(GOLDEN_MODULES)} digests)")
