"""The package's public surface: what ``from causalboot import *`` gives,
and how its enums read their spellings."""

import ast
import sys
from pathlib import Path

import pytest

import causalboot
from causalboot.bootstrap import BootstrapError, MethodId
from causalboot.graph import GraphError, ScenarioId
from causalboot.simulate import SimulateError, TestRegime


def test_every_export_resolves_once_in_sorted_order():
    names = causalboot.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(causalboot, name)]
    assert missing == []
    namespace: dict = {}
    exec("from causalboot import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_every_public_import_is_exported():
    tree = ast.parse(Path(causalboot.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public, "no imports found in causalboot/__init__.py"
    assert sorted(public - set(causalboot.__all__)) == []


SOURCES = sorted(Path(causalboot.__file__).parent.glob("*.py"))


def used_names(path):
    """Each module ``path`` imports absolutely, each name it imports from
    os as ``os.<name>``, and each ``os.<name>`` it reads."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            if node.module == "os":
                yield from (f"os.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield f"os.{node.attr}"


def test_runtime_imports_are_numpy_and_the_standard_library():
    allowed = {"causalboot", "numpy"} | set(sys.stdlib_module_names)
    outside = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in used_names(path)
        if name.partition(".")[0] not in allowed
    ]
    assert outside == []


def test_only_rng_splits_work_across_cpus():
    # rng is the one module that starts a thread, forks a process,
    # moves a thread between CPUs or makes and splices a spill; the rest
    # reach them through it
    banned = {
        "threading", "multiprocessing", "concurrent", "os.fork", "os.sched_setaffinity",
        "tempfile", "shutil",
    }
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "rng.py"
        for name in used_names(path)
        if name in banned or name.partition(".")[0] in banned
    ]
    assert found == []


@pytest.mark.parametrize(
    "enum, spelling, member",
    [
        (ScenarioId, "a", ScenarioId.OBSERVED_CONF),
        (ScenarioId, " C ", ScenarioId.PARTIAL_CONF_MEDIATOR),
        (ScenarioId, "observed_conf", ScenarioId.OBSERVED_CONF),
        (ScenarioId, "Observed-Conf", ScenarioId.OBSERVED_CONF),
        (ScenarioId, "BIASED_CARE", ScenarioId.BIASED_CARE),
        (ScenarioId, ScenarioId.BIASED_CARE, ScenarioId.BIASED_CARE),
        (MethodId, "cb", MethodId.CB),
        (MethodId, " cb ", MethodId.CB),
        (MethodId, "SIMPLE", MethodId.SIMPLE),
        (MethodId, "If", MethodId.IF),
        (MethodId, MethodId.DA, MethodId.DA),
        (TestRegime, "revconf", TestRegime.REVCONF),
        (TestRegime, "rev_conf", TestRegime.REVCONF),
        (TestRegime, "REV-CONF", TestRegime.REVCONF),
        (TestRegime, " unseen ", TestRegime.UNSEEN),
        (TestRegime, TestRegime.UNCONF, TestRegime.UNCONF),
    ],
)
def test_enum_spellings_name_their_member(enum, spelling, member):
    assert enum.coerce(spelling) is member


@pytest.mark.parametrize(
    "enum, error, what",
    [
        (ScenarioId, GraphError, "scenario"),
        (MethodId, BootstrapError, "method"),
        (TestRegime, SimulateError, "test regime"),
    ],
)
@pytest.mark.parametrize("spelling", ["", "z", "c b", "oracle", None, 1])
def test_enum_refusals_name_the_unknown_spelling(enum, error, what, spelling):
    with pytest.raises(error) as got:
        enum.coerce(spelling)
    assert str(got.value) == f"unknown {what} {spelling!r}"
