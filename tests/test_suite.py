"""The test modules themselves: no test is hidden by a later definition."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path


def _defined_twice(body) -> list[str]:
    """Class and function names bound twice in body, and in each class body
    in it: pytest collects only the last of them."""
    defs = [node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    twice = [name for name, count in Counter(d.name for d in defs).items() if count > 1]
    for d in defs:
        if isinstance(d, ast.ClassDef):
            twice += [f"{d.name}.{name}" for name in _defined_twice(d.body)]
    return twice


def test_no_test_module_defines_a_name_twice():
    found = {}
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        twice = _defined_twice(ast.parse(path.read_text(), filename=str(path)).body)
        if twice:
            found[path.name] = twice
    assert found == {}
