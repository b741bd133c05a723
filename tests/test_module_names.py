"""Every name a package module binds at module level, by an import or an
assignment, is read somewhere in that module. __init__.py re-exports by
import, and __future__ imports and dunder names are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "debias_cf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def bound_names(tree: ast.Module) -> list[str]:
    names = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).split(".")[0] for a in stmt.names]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def read_names(tree: ast.Module) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_names_are_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [n for n in bound_names(tree) if n not in read_names(tree)] == []
