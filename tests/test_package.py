"""The package's public surface: what ``from causalboot import *`` gives."""

import ast
import sys
from pathlib import Path

import causalboot


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


def test_runtime_imports_are_numpy_and_the_standard_library():
    allowed = {"causalboot", "numpy"} | set(sys.stdlib_module_names)
    outside = []
    for path in sorted(Path(causalboot.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in modules
                if name.partition(".")[0] not in allowed
            ]
    assert outside == []
