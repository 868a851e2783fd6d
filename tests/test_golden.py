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


#: Experiments whose QUICK table is the same on every seed, and why.
#: Every other experiment must print a different table on seed 2.
SEED_FREE = {
    "fig15_localtree": "the local-tree model is deterministic; the run "
                       "never reads seed",
    "fig20_solr_scaleout": "both runs are bound by box CPU, which serves "
                           "every query at one fixed cost: 256 and 512 "
                           "completed queries on every seed",
    "fig24_hadoop_datasize": "hand-written job profiles; the run never "
                             "reads seed",
    "ablation_colocation": "fixed task sizes on a timed box; the run "
                           "never reads seed",
    "ablation_multicast": "one fixed distribution plan; the run never "
                          "reads seed",
    "ablation_reducers": "a hand-written job profile; the run never "
                         "reads seed",
    "ablation_streaming": "the local-tree model is deterministic; the "
                          "run never reads seed",
}


def table_digest(module: str, seed: int = 1) -> str:
    text = load(module).run(scale=QUICK, seed=seed).to_text()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_manifest_covers_the_registry():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(GOLDEN_MODULES)


@pytest.mark.parametrize("module", GOLDEN_MODULES)
def test_table_matches_golden(module):
    golden = json.loads(MANIFEST.read_text())
    assert table_digest(module) == golden[module], (
        f"{module}: QUICK/seed-1 table moved; if intended, regenerate "
        "with `PYTHONPATH=src python -m tests.test_golden`")


@pytest.mark.parametrize("module", GOLDEN_MODULES)
def test_seed_reaches_the_table(module):
    """``--seed`` reaches every table: seed 2's table is not the pinned
    seed-1 one (which ``test_table_matches_golden`` checks), except for
    the :data:`SEED_FREE` experiments, whose seed-2 table is the pinned
    one."""
    golden = json.loads(MANIFEST.read_text())
    assert (table_digest(module, seed=2) == golden[module]) == (
        module in SEED_FREE)


def test_seed_free_names_golden_modules():
    assert set(SEED_FREE) <= set(GOLDEN_MODULES)


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(
        {name: table_digest(name) for name in GOLDEN_MODULES},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(GOLDEN_MODULES)} digests)")
