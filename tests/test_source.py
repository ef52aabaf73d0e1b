"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "eqmack").glob("*.py"))


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
