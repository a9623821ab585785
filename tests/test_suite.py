"""The source itself: no test is hidden by a later definition, and no module
of the package keeps an import it never uses."""

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


def _unused_imports(path: Path) -> list[str]:
    """Names bound by a module-level import in path and never read there.

    A name in the module's __all__ counts as read, and an import on a line
    marked `# noqa: F401` is skipped.
    """
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # `import a.b` binds a; `import a.b as c` and `from a import b as c` bind c
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(f"{node.lineno}: {bound}")
    return unused


def test_no_package_module_imports_a_name_it_does_not_use():
    src = Path(__file__).resolve().parents[1] / "src" / "polycm"
    found = {}
    for path in sorted(src.glob("*.py")):
        unused = _unused_imports(path)
        if unused:
            found[path.name] = unused
    assert found == {}
