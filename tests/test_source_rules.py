"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import tropkp


def test_no_assert_statements():
    """A check in the package must raise: ``python -O`` strips asserts, so
    an assert would pass vacuously there."""
    modules = sorted(Path(tropkp.__file__).resolve().parent.glob("*.py"))
    assert modules
    found = {}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}, f"assert statements (module: lines): {found}"
