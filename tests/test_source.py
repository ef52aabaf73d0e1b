"""Checks on the package source itself."""

import ast
import importlib
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCES = sorted((SRC / "eqmack").glob("*.py"))
MODULES = [p.stem for p in SOURCES if p.stem != "__init__"]


def unused_imports(tree):
    """Names bound by an import statement that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n")
    assert unused_imports(tree) == [(2, "pi")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def assert_statements(tree):
    """Lines of the assert statements, which python -O strips."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_assert_statements_are_found():
    assert assert_statements(ast.parse("x = 1\nassert x\nif x:\n    assert x, 'x'\n")) == [2, 4]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # an input check must raise the module's own error, also under python -O
    assert assert_statements(ast.parse(path.read_text())) == []


def function_imports(tree):
    """Lines of the import statements inside a function body."""
    return sorted(
        {
            node.lineno
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_function_imports_are_found():
    source = "import os\ndef f():\n    import re\n    def g():\n        from math import pi\n"
    assert function_imports(ast.parse(source)) == [3, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_imports(path):
    # every import is at the module top, where an import cycle shows at once
    assert function_imports(ast.parse(path.read_text())) == []


def generated_code(tree):
    """Lines that import dataclasses, whose decorator writes and compiles
    its methods' source at import, or that call exec or eval."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "dataclasses"
        elif isinstance(node, ast.Call):
            hit = isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval")
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_generated_code_is_found():
    source = (
        "import os\nimport dataclasses.field\nfrom dataclasses import dataclass\n"
        "exec('x = 1')\ny = eval('2')\nprint(os.sep)\n"
    )
    assert generated_code(ast.parse(source)) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_generated_code(path):
    # the value classes are written out, so importing the package compiles
    # only its own source
    assert generated_code(ast.parse(path.read_text())) == []


def test_import_leaves_out_dataclasses_and_inspect():
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import eqmack.homotopy, eqmack.tensor\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n" % str(SRC)
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.stdout.split() == ["[]"], run.stderr


def full_level_readers(tree):
    """Lines that name _position or call a nondegenerate method: the reads
    of a nondegenerate simplex's full-level index."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr == "nondegenerate"
        else:
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            hit = "_position" in (name, getattr(node, "name", None))
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def test_full_level_readers_are_found():
    source = (
        "from .simplicial import _position, nd\nx = X.nondegenerate(2)\n"
        "y = simplicial._position\nz = X.nd[2], X.nd_faces\nw = _position(X, s, y, {})\n"
    )
    assert full_level_readers(ast.parse(source)) == [1, 2, 3, 5]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.stem != "simplicial"], ids=lambda p: p.name
)
def test_only_simplicial_reads_full_level_indices(path):
    # the chain layer names a simplex by its index y in X.nd[n]; where that
    # simplex sits in a full level is simplicial.py's business alone
    assert full_level_readers(ast.parse(path.read_text())) == []


def top_level_names(tree):
    """{name: node} for the functions, classes and assigned names at the top
    level of a module."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
    return names


def declared(tree):
    """The names a module lists in __all__."""
    node = top_level_names(tree).get("__all__")
    return set(ast.literal_eval(node.value)) if node else set()


def references(trees):
    """The (module, name) pairs of top-level names that the modules trees of
    one package read: by a relative import, by name in the defining module
    outside the name's own definition, or as an attribute of an imported
    module."""
    found = set()
    for mod, tree in trees.items():
        own = top_level_names(tree)
        bound = {name: (mod, name) for name in own}
        modules = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        bound[alias.asname or alias.name] = (node.module, alias.name)
                        found.add((node.module, alias.name))
        for top in tree.body:
            for node in ast.walk(top):
                ref = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    ref = bound.get(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id in modules:
                        ref = (modules[node.value.id], node.attr)
                if ref and not (ref[0] == mod and own.get(ref[1]) is top):
                    found.add(ref)
    return found


def unread(trees, pinned, counted):
    """The top-level names that counted(tree, name) selects, that no module
    of trees reads and that pinned does not name, as (module, name) pairs."""
    read = references(trees) | set(pinned)
    return sorted(
        (mod, name)
        for mod, tree in trees.items()
        for name in top_level_names(tree)
        if counted(tree, name) and (mod, name) not in read
    )


def uncalled(trees, pinned=()):
    """Public top-level names outside their module's __all__ that no module
    reads and that pinned does not name, as (module, name) pairs."""
    return unread(
        trees, pinned, lambda tree, name: not name.startswith("_") and name not in declared(tree)
    )


def orphaned(trees, pinned=()):
    """Private top-level names, dunders aside, that no module reads and that
    pinned does not name, as (module, name) pairs: a helper left behind by
    the code that called it."""
    return unread(
        trees, pinned, lambda tree, name: name.startswith("_") and not name.startswith("__")
    )


def test_uncalled_names_are_found():
    # b's product is itertools', so a's has no caller
    a = (
        "__all__ = ['entry']\n"
        "def entry(): return used()\ndef helper(): return 1\ndef used(): return 2\n"
        "def product(): return 3\ndef recursive(): return recursive()\ndef pinned(): return 4\n"
    )
    b = (
        "from itertools import product\nfrom . import a as mod_a\nfrom .a import helper\n"
        "X = product(mod_a.entry())\n"
    )
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert uncalled(trees, pinned=[("a", "pinned")]) == [
        ("a", "product"), ("a", "recursive"), ("b", "X"),
    ]


def test_orphaned_private_names_are_found():
    # _cancel lost its caller; _step is read by b, _kept by a itself, and
    # _pinned by the pins; a private name's own recursion reads nothing
    a = (
        "__all__ = ['entry']\n_TABLE = {}\n"
        "def entry(): return _kept(_TABLE)\ndef _kept(t): return t\n"
        "def _cancel(x): return _cancel(x)\ndef _step(): return 1\ndef _pinned(): return 2\n"
    )
    b = "from . import a as mod_a\nY = mod_a._step()\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert orphaned(trees, pinned=[("a", "_pinned")]) == [("a", "_cancel")]
    assert uncalled(trees) == [("b", "Y")]


def private_methods(tree):
    """(class, method node) for the private methods, dunders aside, of the
    top-level classes of a module."""
    return [
        (cls.name, fn)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.startswith("_")
        and not fn.name.startswith("__")
    ]


def attribute_reads(node):
    """How often each name is read under node as an attribute, or named by a
    string, as getattr names it."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Constant) and isinstance(n.value, str))
    )


def orphaned_methods(trees, pinned=(), hooked=()):
    """Private methods of the classes of trees whose name no module reads
    outside the method's own body, that pinned does not name as (module,
    class, method) and that hooked, names read from outside the package,
    does not hold, as (module, class, method) triples.  A method is matched
    by name alone, so an override counts as read where its base's is."""
    reads = sum((attribute_reads(tree) for tree in trees.values()), Counter())
    return sorted(
        (mod, cls, fn.name)
        for mod, tree in trees.items()
        for cls, fn in private_methods(tree)
        if reads[fn.name] == attribute_reads(fn)[fn.name]
        and (mod, cls, fn.name) not in set(pinned)
        and fn.name not in hooked
    )


def test_orphaned_private_methods_are_found():
    # _dead lost its caller and _walk only calls itself; _used is read by b,
    # _named by a getattr string, _pinned by the pins and _hooked by a hook
    a = (
        "class A:\n"
        "    def run(self): return getattr(self, '_named')()\n"
        "    def _used(self): return 1\n    def _dead(self): return 2\n"
        "    def _walk(self): return self._walk()\n    def _named(self): return 3\n"
        "    def _pinned(self): return 4\n    def _hooked(self): return 5\n"
        "    def __len__(self): return 0\n"
    )
    b = "from .a import A\nY = A()._used()\n"
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    found = orphaned_methods(trees, pinned=[("a", "A", "_pinned")], hooked={"_hooked"})
    assert found == [("a", "A", "_dead"), ("a", "A", "_walk")]


def tracer_specs():
    """Every function, method and cache bench/tracer.py names, as
    "module.name" or "module.Class.method"."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    specs = []
    for node in tree.body:
        name = getattr(node.targets[0], "id", None) if isinstance(node, ast.Assign) else None
        if name in ("LAYERS", "CACHES"):
            value = ast.literal_eval(node.value)
            specs += [s for v in value.values() for s in v] if isinstance(value, dict) else value
    return specs


def tracer_pins():
    """(module, name) for every function and cache bench/tracer.py names."""
    return {tuple(spec.split(".")[:2]) for spec in tracer_specs()}


def tracer_hook_reads():
    """The private attributes bench/tracer.py reads off objects other than
    its own tracer, as its hooks read the package's caches."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    return {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and n.attr.startswith("_")
        and not n.attr.startswith("__")
        and getattr(n.value, "id", None) not in ("self", "tracer")
    }


def test_every_public_name_is_declared_or_called():
    # a name the benchmark's tracer pins counts as called: based_value,
    # based_covariant, based_contravariant, matmul, matadd,
    # std_orbit_for_subgroup and standard_simplex_plus have no caller in the
    # package and leave with the benchmark change that unpins them
    trees = {mod: ast.parse((SRC / "eqmack" / (mod + ".py")).read_text()) for mod in MODULES}
    assert uncalled(trees, tracer_pins()) == []


def test_every_private_name_is_read():
    # a private helper whose last caller went is dead code; the names the
    # benchmark's tracer pins count as read, as for the public names
    trees = {mod: ast.parse((SRC / "eqmack" / (mod + ".py")).read_text()) for mod in MODULES}
    assert orphaned(trees, tracer_pins()) == []


def test_every_private_method_is_read():
    # as for the top-level names, a private method no module reads is dead
    # code; the methods the tracer wraps and the attributes its hooks read
    # count as read
    trees = {mod: ast.parse((SRC / "eqmack" / (mod + ".py")).read_text()) for mod in MODULES}
    pins = {tuple(spec.split(".")) for spec in tracer_specs() if spec.count(".") == 2}
    assert orphaned_methods(trees, pins, tracer_hook_reads()) == []


@pytest.mark.parametrize("mod", MODULES)
def test_every_declared_name_is_defined_by_its_module(mod):
    tree = ast.parse((SRC / "eqmack" / (mod + ".py")).read_text())
    module = importlib.import_module("eqmack." + mod)
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if n not in top_level_names(tree) or not hasattr(module, n)] == []


def test_every_name_the_benchmark_imports_is_declared():
    tree = ast.parse((ROOT / "bench" / "cases.py").read_text())
    imports = [
        (node.module.split(".")[1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eqmack.")
        for alias in node.names
    ]
    assert imports
    missing = [
        (mod, name)
        for mod, name in imports
        if name not in importlib.import_module("eqmack." + mod).__all__
    ]
    assert missing == []
