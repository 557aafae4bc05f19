"""Source hygiene: every module-level import in the package and its tests is
used, every local a function of the package or its tests binds is read,
every public definition of the package, and every public method and
property of its classes that have no base class, is reached from the
package itself or from the benchmark, its one outside caller, every private
definition from the package itself, every public definition of the test
oracles is reached from a test, every default of a package function or
dataclass field is overridden by some caller other than a unit test, README's
config table lists exactly the config keys, only `grid.py` imports `hashlib`
(one routine digests artifact files) and reads or writes a node file's body
or header line, the `tzitzeica` script and
`python -m tzitzeica.cli` enter through one function, every layer name a
stage calls is bound by that stage's process, and every attribute the
benchmark's tracer wraps exists and is called through the binding it wraps."""

import ast
import collections
import importlib
import pathlib
import re
from dataclasses import MISSING, fields

from tzitzeica.config import RunConfig

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


def _own_scope(func):
    """The nodes of a function's body outside the functions, lambdas and
    classes nested in it, which have scopes of their own."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(source):
    """"function:name" of each name a function binds in its own scope that
    no code in the function, the functions nested in it included, reads;
    names starting with _ are exempt, and so are names the function declares
    global or nonlocal."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        own = list(_own_scope(func))
        shared = {name for n in own if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        bound = {n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        found += [f"{func.name}:{name}" for name in sorted(bound - read - shared) if not name.startswith("_")]
    return found


def test_guard_flags_a_local_nothing_reads():
    source = (
        "def f(a):\n"
        "    b, c = a\n"
        "    for i in range(3):\n"
        "        d = i\n"
        "    e = 0\n"
        "    e += 1\n"
        "    _kept, g = 1, 2\n"
        "    def inner():\n"
        "        nonlocal g\n"
        "        g = 3\n"
        "        return c\n"
        "    return inner\n"
        "\n"
        "def h():\n"
        "    global state\n"
        "    state = [n for n in range(2)]\n"
        "    m = 1\n"
        "    del m\n"
    )
    assert unread_locals(source) == ["f:b", "f:d", "f:e", "f:g", "h:m"]
    assert unread_locals("x = 1\n\nclass C:\n    y = 2\n") == []


def test_no_local_that_nothing_reads():
    found = {f"{p.parent.name}/{p.name}": unread_locals(p.read_text())
             for p in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def _references(tree):
    """How often a tree uses each name, as a Counter of (name, attribute):
    attribute is False for a bare name and True for an attribute."""
    return collections.Counter(
        (n.attr, True) if isinstance(n, ast.Attribute) else (n.id, False)
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree, private):
    """("name", node) of each public (or, with `private`, private) top-level
    def and class of a module, and, unless `private`, ("Class.name", node) of
    each public method and property of its classes that have no base class
    (a subclass's method may override one that its base's callers reach)."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") == private:
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef) and not node.bases and not private:
            found += [(f"{node.name}.{m.name}", m) for m in node.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def unreached_definitions(modules, reaching=(), private=False):
    """The _definitions of `modules` (name -> source) that no module
    references outside the definition itself, and no source in `reaching`
    references at all; as "module:name".  A top-level definition is
    referenced by its bare name or as an attribute, a member only as an
    attribute.  A module's __getattr__ is reached by the interpreter, for a
    name the module does not bind (PEP 562)."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = sum((_references(ast.parse(source)) for source in reaching), collections.Counter())
    uses = sum(map(_references, trees.values()), collections.Counter())
    found = []
    for name, tree in trees.items():
        for qualname, node in _definitions(tree, private):
            own = _references(node)
            keys = [(node.name, True)] + ([] if "." in qualname else [(node.name, False)])
            if node.name != "__getattr__" and not any(outside[k] or uses[k] > own[k] for k in keys):
                found.append(f"{name}:{qualname}")
    return found


def test_guard_flags_an_unreached_definition():
    modules = {
        "a.py": "def used():\n    pass\n\ndef dead():\n    return dead\n\ndef _private():\n    pass\n",
        "b.py": "from . import a\n\nclass Tested:\n    pass\n\na.used()\n",
    }
    assert unreached_definitions(modules) == ["a.py:dead", "b.py:Tested"]
    assert unreached_definitions(modules, ["from b import Tested\nTested()\n"]) == ["a.py:dead"]
    # a member is reached by any reference but its own: a sibling's, another
    # module's or an outside source's; a subclass's members are exempt
    grid = (
        "class Grid:\n"
        "    def __init__(self, n):\n        self.n = n\n"
        "    @property\n    def x(self):\n        return self.n\n"
        "    @property\n    def y(self):\n        return self.y\n"
        "    def mesh(self):\n        return self.x, self._h()\n"
        "    def _h(self):\n        return 1\n"
        "\nclass Parser(Base):\n    def error(self, message):\n        pass\n"
    )
    modules = {"a.py": grid, "b.py": "from .a import Grid, Parser\n\nParser(Grid(8).x)\n"}
    assert unreached_definitions(modules) == ["a.py:Grid.y", "a.py:Grid.mesh"]
    assert unreached_definitions(modules, ["g.mesh()\n"]) == ["a.py:Grid.y"]
    assert unreached_definitions(modules, private=True) == []
    # the grid's y coordinates and mesh, which only tests read, would be
    # flagged in the package
    package = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    anchor = "    @property\n    def x(self):\n"
    y = "    @property\n    def y(self):\n        return np.arange(self.ny) * self.hy\n\n"
    mesh = "    def mesh(self):\n        return np.meshgrid(self.x, self.y)\n\n"
    assert package["grid.py"].count(anchor) == 1
    for members, flagged in ((y, "y"), (y + mesh, "mesh")):
        widened = dict(package, **{"grid.py": package["grid.py"].replace(anchor, members + anchor)})
        assert unreached_definitions(widened, bench) == [f"grid.py:PeriodicGrid.{flagged}"]


def test_no_public_definition_only_its_own_tests_call():
    # the benchmark, which runs the pipeline in process, is the package's one
    # outside caller; a definition only tests reach belongs in tests/
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    assert unreached_definitions(modules, bench) == []


def test_guard_flags_an_unreached_private_definition():
    modules = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    return _dead\n\ndef public():\n    pass\n",
        "b.py": "from .a import _used\n\nclass _Spare:\n    pass\n\n_used()\n",
        "c.py": "def __getattr__(name):\n    return _bind(name)\n\ndef _bind(name):\n    pass\n",
    }
    assert unreached_definitions(modules, private=True) == ["a.py:_dead", "b.py:_Spare"]


def test_no_private_definition_nothing_in_src_reaches():
    # a private helper that only tests call is test code, not package code
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreached_definitions(modules, private=True) == []


def test_no_oracle_definition_no_test_reaches():
    # the oracles live in tests/ only for the tests that cross-check with them
    helpers = {name: (TESTS / name).read_text() for name in ("oracles.py", "reference_march.py")}
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py")) if p.name not in helpers]
    assert unreached_definitions(helpers, tests) == []


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


def _called_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _defaulted(node):
    """(position, name) of each defaulted parameter of a top-level function,
    or of each defaulted field of a dataclass (a field(...) without default
    or default_factory has none); None for any other statement."""
    if isinstance(node, ast.FunctionDef):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
        return params + [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    if not isinstance(node, ast.ClassDef):
        return None
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    if "dataclass" not in map(_called_name, decorators):
        return None
    annotated = [s for s in node.body if isinstance(s, ast.AnnAssign)]
    return [
        (i, s.target.id)
        for i, s in enumerate(annotated)
        if s.value is not None
        and not (isinstance(s.value, ast.Call) and _called_name(s.value.func) == "field"
                 and not {"default", "default_factory"} & {k.arg for k in s.value.keywords})
    ]


def unset_defaults(modules, callers):
    """Defaulted parameters of the top-level functions and defaulted fields
    of the dataclasses of `modules` (name -> source) that no call in
    `callers` (sources) passes, by position or by keyword, as
    "module:function(parameter)".  Calls are matched by the called name,
    bare or as an attribute.  A call with **kwargs passes every parameter,
    so config.RunConfig, built by RunConfig(**kwargs) from a config file's
    keys, keeps the defaults that file may leave unset."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                called = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(called, []).append(node)
    found = []
    for name, source in modules.items():
        for node in ast.parse(source).body:
            found += [
                f"{name}:{node.name}({param})"
                for index, param in _defaulted(node) or []
                if not any(_passes(c, index, param) for c in calls.get(node.name, []))
            ]
    return found


def test_guard_flags_a_default_no_caller_sets():
    modules = {
        "a.py": "def f(x, y=1, *, z=2):\n    return g(x)\n\ndef g(v, w=0):\n    return v\n",
        "b.py": "def h(p=0, q=1):\n    return p\n\nclass C:\n    def m(self, r=0):\n        pass\n",
        "c.py": (
            "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: list = field(repr=False)\n"
            "    c: int = 0\n    d: int = field(default=1)\n\n@dataclass\nclass E:\n    e: int = 2\n"
        ),
    }
    callers = list(modules.values()) + ["from a import f\nf(1, 2)\nmod.h(q=3)\nD(1, [], 2)\n"]
    assert unset_defaults(modules, callers) == [
        "a.py:f(z)", "a.py:g(w)", "b.py:h(p)", "c.py:D(d)", "c.py:E(e)"]
    more = callers + ["f(0, z=5)\ng(*vals)\nh(**opts)\nD(0, [], d=3)\nE(**keys)\n"]
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


def test_console_script_and_main_block_share_one_process_entry():
    # the `tzitzeica` script and `python -m tzitzeica.cli` exit through the
    # same function, so neither skips what a stage process does at exit; the
    # one other __main__ block turns the collector off before numpy's import
    pyproject = (TESTS.parent / "pyproject.toml").read_text()
    [(module, entry)] = re.findall(r'^tzitzeica = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert module == "tzitzeica.cli"
    body = ast.parse((SRC / "cli.py").read_text()).body
    blocks = [(i, [ast.unparse(stmt) for stmt in node.body]) for i, node in enumerate(body)
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    [numpy] = [i for i, node in enumerate(body)
               if isinstance(node, ast.Import) and node.names[0].name == "numpy"]
    [(first, disable), (last, run)] = blocks
    assert disable == ["gc.disable()"] and first < numpy
    assert run == [f"sys.exit({entry}())"] and last == len(body) - 1


def importers(modules, name):
    """The file names of ``modules`` (file name -> source) whose code imports
    the module ``name`` anywhere, by `import` or `from ... import`."""
    def imports(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == name for a in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == name

    return [f for f, source in modules.items() if any(map(imports, ast.walk(ast.parse(source))))]


def test_guard_flags_every_module_that_imports_a_name():
    modules = {
        "a.py": "import hashlib\n",
        "b.py": "def f():\n    from hashlib import sha256\n",
        "c.py": "import hashlibx\nimport os.path\nfrom . import hashlib_like\n",
    }
    assert importers(modules, "hashlib") == ["a.py", "b.py"]


def test_only_grid_digests_artifact_files():
    # grid.load_nodes hashes a node file's bytes in the read that parses
    # them; no other module hashes an artifact file on its own
    package = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert importers(package, "hashlib") == ["grid.py"]


NODE_FILE_CALLS = ("fromfile", "tofile", "header_line")


def node_file_calls(modules):
    """"file:line" of each call of fromfile, tofile or header_line, bare or
    as an attribute, in ``modules`` (file name -> source) other than
    grid.py."""
    return [
        f"{name}:{node.lineno}"
        for name, source in modules.items()
        if name != "grid.py"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _called_name(node.func) in NODE_FILE_CALLS
    ]


def test_guard_flags_a_node_file_read_written_or_headed_outside_grid():
    modules = {
        "grid.py": "v = np.fromfile(fh)\nfh.write(header_line(h))\n",
        "a.py": "import numpy as np\nv = np.fromfile(fh, '<f8')\n\nvalues.tofile(fh)\n",
        "b.py": "from .grid import header_line\nfh.write(header_line((1, 2)))\nsave_nodes(p, r, v)\n",
    }
    assert node_file_calls(modules) == ["a.py:2", "a.py:4", "b.py:2"]


def test_only_grid_reads_writes_or_heads_a_node_file():
    # a node file's header is its record, written by grid.save_nodes and
    # checked by grid.load_nodes; no other module reads or writes one itself
    package = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert node_file_calls(package) == []


def readme_config_rows(readme):
    """(key, default) of each row of README's config table, the table under
    its `| key | meaning | default |` header."""
    table = readme.split("| key | meaning | default |\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.strip("|").split("|") for line in table.splitlines()[1:]]
    return [(cells[0].strip(" `"), cells[-1].strip(" `")) for cells in rows]


def _readme_default(f):
    if f.default is MISSING:
        return "required"
    if f.default is None:
        return "(none)"
    return str(f.default).lower() if isinstance(f.default, bool) else str(f.default)


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (TESTS.parent / "README.md").read_text()
    assert readme_config_rows(readme) == [(f.name, _readme_default(f)) for f in fields(RunConfig)]


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


def _traced_calls(name, source):
    """(module, attribute) of each binding a call in module `name` looks up:
    a bare name is looked up in the module itself, `alias.attr` in the
    package module that `from . import module as alias` bound to alias."""
    tree = ast.parse(source)
    aliases = {
        a.asname or a.name: a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for a in node.names
    }
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            found.add((name, func.id))
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in aliases:
                found.add((aliases[func.value.id], func.attr))
    return found


def uncalled_spans(targets, modules):
    """The span names of the tracer targets (module, attribute, span) none
    of whose bindings a call in `modules` (package module name -> source)
    looks up: spans that would read 0 however the pipeline runs."""
    calls = set().union(*(_traced_calls(name, source) for name, source in modules.items()))
    called = {span for module, attr, span in targets if (module.rsplit(".", 1)[-1], attr) in calls}
    return sorted({span for _module, _attr, span in targets} - called)


def test_guard_flags_an_uncalled_span():
    modules = {
        "a": "from . import b as bee\n\ndef f():\n    return g() + bee.h()\n\ndef g():\n    return 0\n",
        "b": "def h():\n    return 1\n\ndef kept():\n    return h\n",
    }
    targets = [("pkg.a", "g", "a.g"), ("pkg.b", "h", "b.h"), ("pkg.a", "h", "a.h"),
               ("pkg.b", "kept", "b.kept"), ("pkg.b", "g", "a.g")]
    assert uncalled_spans(targets, modules) == ["a.h", "b.kept"]


def test_every_traced_span_is_called_in_the_package():
    # linalg3.unitarity_defect_map's span also wraps the binding in linalg3,
    # which nothing calls; the one in lax keeps the span live
    targets = _assigned_literal((BENCH / "tracing.py").read_text(), "TARGETS")
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert uncalled_spans(targets, modules) == []
