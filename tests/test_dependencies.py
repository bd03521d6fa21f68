"""The package imports nothing but the standard library, NumPy and itself."""

import ast
import sys
from pathlib import Path

import pytest

# read as source, not imported, so a module whose import fails is still checked
PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "poolnet"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "poolnet"}
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import; relative ones are poolnet."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add(node.module.split(".")[0] if node.level == 0 else "poolnet")
    return roots


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"__init__.py", "tensor.py", "cli.py"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_poolnet(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    assert imported_roots(tree) <= ALLOWED, sorted(imported_roots(tree) - ALLOWED)
