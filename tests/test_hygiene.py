"""Source hygiene: every module-level import in the package and its tests is used."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tzitzeica"


def _bound_names(node):
    """Names a module-level import statement binds."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def unused_imports(source):
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        name
        for node in tree.body
        for name in _bound_names(node)
        if name not in used
    ]


def test_guard_flags_an_unused_import():
    assert unused_imports("import json\nimport os\nos.sep\n") == ["json"]
    assert unused_imports("from . import grid as gridmod\n") == ["gridmod"]
    assert unused_imports("import scipy.sparse.linalg\nscipy.sparse\n") == []


def test_no_unused_module_level_imports():
    # __init__.py is the package's re-export list
    package = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert package and tests
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text()) for p in package + tests}
    assert {k: v for k, v in found.items() if v} == {}
