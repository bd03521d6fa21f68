"""Every top-level function, class and constant of the package has a caller.

A caller is a read of the name anywhere in ``src/poolnet`` (``__init__``'s
imports included) or in the benchmark harness under ``perfbench/``, its own
tests aside, outside the statement that defines it, so recursion alone does
not count.  The harness's string constants count too, as its tracer looks
ops up by name.  Names are matched by spelling alone, whatever module they
come from.
"""

import ast
from pathlib import Path

# read as source, not imported, like tests/test_no_scatter.py
ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "poolnet").glob("*.py"))
HARNESS = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def defined(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement defines; dunders such as ``__all__`` aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")}


def references(tree: ast.Module, strings: bool = False) -> set[str]:
    """Names ``tree`` reads outside the top-level statement defining them:
    loaded names, attributes and imported names, and with ``strings`` every
    string constant."""
    used = set()
    for stmt in tree.body:
        read = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rsplit(".", 1)[-1])
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
        used |= read - defined(stmt)
    return used


def unreferenced(trees: dict[str, ast.Module], used: set[str]) -> list[str]:
    """``module: name`` of each definition in ``trees`` that ``used`` lacks."""
    return [f"{module}: {name}" for module, tree in trees.items()
            for stmt in tree.body for name in sorted(defined(stmt)) if name not in used]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_a_name_read_only_by_itself_is_found():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "LIMIT = 3\n"
                     "class Box:\n    size: int = LIMIT\n"
                     "def g():\n    return Box()\n")
    assert unreferenced({"m": tree}, references(tree)) == ["m: f", "m: g"]


def test_imports_attributes_and_harness_strings_are_reads():
    package = ast.parse("from .ops import conv\nimport pkg.data\npkg.data.load()\n")
    harness = ast.parse("OPS = ['resize']\n")
    used = references(package) | references(harness, strings=True)
    assert {"conv", "data", "load", "resize"} <= used


def test_every_definition_has_a_caller():
    package = {p.name: parse(p) for p in MODULES}
    used = set().union(*map(references, package.values()),
                       *(references(parse(p), strings=True) for p in HARNESS))
    assert unreferenced(package, used) == []
