"""The package's hot paths use no unbuffered ``ufunc.at`` scatters."""

import ast
from pathlib import Path

import numpy as np
import pytest

# read as source, not imported, like tests/test_dependencies.py
PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "poolnet"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
UFUNCS = {name for name in dir(np) if isinstance(getattr(np, name), np.ufunc)}


def ufunc_at_calls(tree: ast.AST) -> list[str]:
    """``<ufunc>.at(...)`` calls, e.g. ``np.add.at`` or ``maximum.at``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "at"):
            continue
        receiver = node.func.value
        name = receiver.attr if isinstance(receiver, ast.Attribute) else getattr(receiver, "id", None)
        if name in UFUNCS:
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
    return found


@pytest.mark.parametrize("source", [
    "np.add.at(a, i, v)",
    "numpy.maximum.at(a, i, v)",
    "from numpy import subtract\nsubtract.at(a, i, v)",
])
def test_scatters_are_found(source):
    assert len(ufunc_at_calls(ast.parse(source))) == 1


def test_other_at_calls_are_not_scatters():
    assert ufunc_at_calls(ast.parse("frame.at(1)\nnp.take(a, i)")) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_ufunc_at_scatter(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    assert ufunc_at_calls(tree) == []
