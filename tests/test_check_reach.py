"""tools/check_reach.py: which functions an entry point enters.

The full drive (every figure, the examples, a live ``repro serve``)
runs in the CI lint job; here the report logic runs on a small fixture
package.
"""

import importlib.util
import pathlib

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[1]
          / "tools" / "check_reach.py")


def load():
    spec = importlib.util.spec_from_file_location("check_reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Two figures built from one template (byte-identical ``run``s at the
#: same line of different files), and a module with a live call chain,
#: a dead function, a class with one unused method and a closure.
FIXTURE = {
    "fig_a.py": "def run():\n    return 1\n",
    "fig_b.py": "def run():\n    return 1\n",
    "util.py": (
        "def used():\n"
        "    return helper()\n"
        "\n\n"
        "def helper():\n"
        "    def inner():\n"
        "        return 2\n"
        "    return 2\n"
        "\n\n"
        "def dead():\n"
        "    return 3\n"
        "\n\n"
        "class Box:\n"
        "    def live(self):\n"
        "        return 4\n"
        "\n"
        "    def spare(self):\n"
        "        return 5\n"
    ),
}


def load_package(tmp_path, files):
    """``(root, modules)`` of a package of ``files``, imported by path."""
    root = tmp_path / "pkg"
    root.mkdir()
    modules = {}
    for name, source in files.items():
        path = root / name
        path.write_text(source)
        spec = importlib.util.spec_from_file_location(
            f"reach_fixture_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        modules[path.stem] = module
    return root, modules


@pytest.fixture
def package(tmp_path):
    """``(root, modules)`` of the fixture package."""
    return load_package(tmp_path, FIXTURE)


def census(check_reach, root, calls, reasons):
    recorder = check_reach.Recorder()
    recorder.start()
    try:
        for call in calls:
            call()
    finally:
        recorder.stop()
    return check_reach.problems(check_reach.defs(root), recorder.keys(),
                                reasons)


def everything(modules):
    return [modules["fig_a"].run, modules["fig_b"].run,
            modules["util"].used, modules["util"].Box().live]


def test_defs_are_named_by_path_and_qualname(package):
    root, _ = package
    assert sorted(load().defs(root).values()) == [
        "fig_a.py:run", "fig_b.py:run", "util.py:Box.live",
        "util.py:Box.spare", "util.py:dead", "util.py:helper",
        "util.py:helper.<locals>.inner", "util.py:used"]


def test_an_unentered_unlisted_def_fails(package):
    check_reach = load()
    root, modules = package
    unentered, found = census(check_reach, root, everything(modules), {})
    assert unentered == ["util.py:Box.spare", "util.py:dead",
                         "util.py:helper.<locals>.inner"]
    assert [line.split(": ")[0] for line in found] == unentered
    # Listed, they pass: a function by name, a class's methods and a
    # function's closures by the enclosing key.
    _, found = census(check_reach, root, everything(modules), {
        "util.py:dead": "kept", "util.py:Box": "kept",
        "util.py:helper": "kept"})
    assert found == []


def test_a_stale_reason_fails(package):
    check_reach = load()
    root, modules = package
    reasons = {"util.py:dead": "kept", "util.py:Box": "kept",
               "util.py:helper": "kept",
               "util.py:used": "entered after all",
               "util.py:gone": "deleted since"}
    _, found = census(check_reach, root, everything(modules), reasons)
    assert found == [
        "util.py:gone: REASONS names a def that does not exist",
        "util.py:used: entered; drop its REASONS entry"]


def test_byte_identical_defs_in_two_files_count_apart(package):
    check_reach = load()
    root, modules = package
    run_a, run_b = modules["fig_a"].run, modules["fig_b"].run
    # The trap is real: the two code objects compare equal (``==``
    # ignores the file), so a set of code objects keeps only one.
    assert run_a.__code__ == run_b.__code__
    assert run_a.__code__ is not run_b.__code__
    reasons = {"util.py:dead": "kept", "util.py:Box": "kept",
               "util.py:helper": "kept"}
    unentered, found = census(check_reach, root, everything(modules),
                              reasons)
    assert "fig_a.py:run" not in unentered
    assert "fig_b.py:run" not in unentered
    assert found == []
    # ... and entering one does not enter the other.
    unentered, _ = census(check_reach, root, [run_a], {})
    assert "fig_b.py:run" in unentered and "fig_a.py:run" not in unentered


def test_lambdas_are_counted_like_defs(tmp_path):
    """A lambda is keyed ``path:outer.<lambda>@line``; the enclosing
    def's key covers it, as it covers a closure."""
    check_reach = load()
    root, modules = load_package(tmp_path, {"lam.py": (
        "def outer():\n"
        "    used = lambda: 1\n"
        "    spare = lambda: 2\n"
        "    return used()\n"
        "\n\n"
        "TOP = lambda: 3\n")})
    assert sorted(check_reach.defs(root).values()) == [
        "lam.py:<lambda>@7", "lam.py:outer",
        "lam.py:outer.<locals>.<lambda>@2",
        "lam.py:outer.<locals>.<lambda>@3"]
    unentered, found = census(check_reach, root, [modules["lam"].outer], {})
    assert unentered == ["lam.py:<lambda>@7",
                         "lam.py:outer.<locals>.<lambda>@3"]
    assert [line.split(": ")[0] for line in found] == unentered
    _, found = census(check_reach, root, [modules["lam"].outer], {
        "lam.py:outer": "kept", "lam.py:<lambda>@7": "kept"})
    assert found == []


def test_reasons_table_stays_short_and_names_real_defs():
    check_reach = load()
    reasons = check_reach.REASONS
    assert len(reasons) <= 40
    assert all(reason.strip() for reason in reasons.values())
    names = set(check_reach.defs().values())
    for key in reasons:
        assert any(check_reach._covers(key, name) for name in names), key
