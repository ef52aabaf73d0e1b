"""Checks on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "eqmack").glob("*.py"))


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
