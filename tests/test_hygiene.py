"""Source hygiene: every module-level import in the package and its tests is
used, every public definition of the package is reached from the package
itself or from the acceptance suite, every default of a package function is
overridden by some caller other than a unit test, and every attribute the
benchmark's tracer wraps exists."""

import ast
import importlib
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tzitzeica"
BENCH = TESTS.parent / "bench"


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
    package = sorted(SRC.glob("*.py"))
    tests = sorted(TESTS.glob("*.py"))
    assert package and tests
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text()) for p in package + tests}
    assert {k: v for k, v in found.items() if v} == {}


def _referenced(tree):
    """Names a tree uses, as bare names or as attributes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached_definitions(modules, reaching=()):
    """Public top-level defs and classes of `modules` (name -> source) that no
    module references outside the definition itself, and no source in
    `reaching` references at all; as "module:name"."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = set().union(*(_referenced(ast.parse(source)) for source in reaching))
    uses = [(stmt, _referenced(stmt)) for tree in trees.values() for stmt in tree.body]
    return [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in refs for stmt, refs in uses if stmt is not node)
    ]


def test_guard_flags_an_unreached_definition():
    modules = {
        "a.py": "def used():\n    pass\n\ndef dead():\n    return dead\n\ndef _private():\n    pass\n",
        "b.py": "from . import a\n\nclass Tested:\n    pass\n\na.used()\n",
    }
    assert unreached_definitions(modules) == ["a.py:dead", "b.py:Tested"]
    assert unreached_definitions(modules, ["from b import Tested\nTested()\n"]) == ["a.py:dead"]


def test_no_public_definition_only_its_own_tests_call():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    acceptance = (TESTS / "test_acceptance.py").read_text()
    assert unreached_definitions(modules, [acceptance]) == []


MAX_EINSUM_OPERANDS = 3


def wide_einsums(source):
    """Lines of the np.einsum calls in `source` that contract more than
    MAX_EINSUM_OPERANDS operands; numpy runs such a call as one nested loop
    over all its indices unless asked to optimize."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "einsum"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and len(node.args) - 1 > MAX_EINSUM_OPERANDS
    ]


def test_guard_flags_a_wide_einsum():
    source = (
        "import numpy as np\n"
        "a = np.einsum('ij,jk,kl->il', x, y, z)\n"
        "b = np.einsum('ij,jk,kl,lm->im', x, y, z, w)\n"
    )
    assert wide_einsums(source) == [3]


def test_no_einsum_in_the_package_contracts_more_than_three_operands():
    found = {p.name: wide_einsums(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def _passes(call, index, name):
    """Whether `call` sets the parameter `name`, at position `index` (None
    for keyword-only); a *args or **kwargs argument may set any."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )


def unset_defaults(modules, callers):
    """Defaulted parameters of the top-level functions of `modules` (name ->
    source) that no call in `callers` (sources) passes, by position or by
    keyword, as "module:function(parameter)".  Calls are matched by the
    called name, bare or as an attribute."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                called = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(called, []).append(node)
    found = []
    for name, source in modules.items():
        for fn in ast.parse(source).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
            params += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [
                f"{name}:{fn.name}({param})"
                for index, param in params
                if not any(_passes(c, index, param) for c in calls.get(fn.name, []))
            ]
    return found


def test_guard_flags_a_default_no_caller_sets():
    modules = {
        "a.py": "def f(x, y=1, *, z=2):\n    return g(x)\n\ndef g(v, w=0):\n    return v\n",
        "b.py": "def h(p=0, q=1):\n    return p\n\nclass C:\n    def m(self, r=0):\n        pass\n",
    }
    callers = list(modules.values()) + ["from a import f\nf(1, 2)\nmod.h(q=3)\n"]
    assert unset_defaults(modules, callers) == ["a.py:f(z)", "a.py:g(w)", "b.py:h(p)"]
    more = callers + ["f(0, z=5)\ng(*vals)\nh(**opts)\n"]
    assert unset_defaults(modules, more) == []


def test_no_default_that_no_caller_sets():
    package = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unset_defaults(package, list(package.values()) + tests) == []


def test_no_default_only_unit_tests_override():
    # the pipeline, the acceptance suite and the benchmark are the callers
    # that count; cli.main's argv stays None for the console script
    package = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = list(package.values()) + [(TESTS / "test_acceptance.py").read_text()]
    callers += [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    assert unset_defaults(package, callers) == ["cli.py:main(argv)"]


def _assigned_literal(source, name):
    """The literal value a module assigns to `name` at its top level."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_every_traced_attribute_resolves():
    targets = _assigned_literal((BENCH / "tracing.py").read_text(), "TARGETS")
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
