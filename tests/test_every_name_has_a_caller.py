"""Every top-level function, class and constant of the package has a caller.

A caller is a read of the name anywhere in ``src/poolnet`` (``__init__``'s
imports included) or in the benchmark harness under ``perfbench/``, its own
tests aside, outside the statement that defines it, so recursion alone does
not count.  The harness's string constants count too, as its tracer looks
ops up by name.  Names are matched by spelling alone, whatever module they
come from.

Every defaulted parameter of a function, method or class ``__init__`` in
the package has a caller too, unless its function or class is public (in
``poolnet.__all__``): some call in the package or the harness spelling the
function's, method's or class's name passes it by keyword, by position, or
through ``*`` or ``**``.  A default that no call overrides is a constant.

No parameter of such a function, method or class takes the same literal
from every call: where each call in the package or the harness spelling its
name binds it, by position, by keyword or by omission to a literal default,
to one value that ``ast.literal_eval`` reads, that value is a constant too.
Calls are matched by spelling alone, so a call that names the function
another way is not seen: ``self.edge(...)`` runs ``EdgeBranch.forward``.
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


def public_names(init: ast.Module) -> set[str]:
    """The names the package's ``__all__`` lists."""
    for stmt in init.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return set(ast.literal_eval(stmt.value))
    return set()


def signatures(tree: ast.Module) -> list[tuple[str, str, list[str], list[str],
                                                  dict[str, ast.expr]]]:
    """(owner, callee, positional, keyword_only, defaults) of each function,
    method and class ``__init__`` in ``tree``.  ``owner`` is the function, or
    the class holding the method; ``callee`` is the name a call spells (the
    class, for ``__init__``); ``positional`` lists the parameters a call's
    positions bind, in order; ``defaults`` maps each defaulted parameter to
    its default."""
    found = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            a = child.args
            names = [p.arg for p in a.posonlyargs + a.args]
            defaults = dict(zip(names[len(names) - len(a.defaults):], a.defaults))
            defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                            if d is not None)
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
            callee = cls if bound and child.name == "__init__" else child.name
            found.append((cls or child.name, callee, names[bound:],
                          [p.arg for p in a.kwonlyargs], defaults))
            visit(child, None)

    visit(tree, None)
    return found


def settings(tree: ast.Module) -> list[tuple[str, str, list[str], list[str]]]:
    """(owner, callee, positional, defaulted) of each function, method and
    class ``__init__`` in ``tree`` with a defaulted parameter; see
    ``signatures``."""
    return [(owner, callee, positional, list(defaults))
            for owner, callee, positional, _, defaults in signatures(tree) if defaults]


def calls(tree: ast.Module, callee: str) -> list[ast.Call]:
    """The calls in ``tree`` that spell ``callee``, as a name or an attribute."""
    return [call for call in ast.walk(tree) if isinstance(call, ast.Call) and callee == (
        call.func.id if isinstance(call.func, ast.Name) else
        call.func.attr if isinstance(call.func, ast.Attribute) else None)]


def passed(tree: ast.Module, callee: str, positional: list[str], defaulted: list[str]) -> set[str]:
    """Parameters that some call in ``tree`` spelling ``callee`` passes by
    keyword, by position, or through ``*`` or ``**``."""
    given = set()
    for call in calls(tree, callee):
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            given |= set(positional)
        given |= set(positional[:len(call.args)])
        for kw in call.keywords:
            given |= set(positional + defaulted) if kw.arg is None else {kw.arg}
    return given


def unset(package: dict[str, ast.Module], callers: list[ast.Module],
          public: set[str]) -> list[str]:
    """``owner(parameter)``, or ``owner.method(parameter)``, of each
    defaulted parameter in ``package`` whose owner ``public`` lacks and that
    no call in ``callers`` passes."""
    missing = []
    for tree in package.values():
        for owner, callee, positional, defaulted in settings(tree):
            if owner in public:
                continue
            given = set().union(*(passed(t, callee, positional, defaulted) for t in callers))
            label = callee if callee == owner else f"{owner}.{callee}"
            missing += [f"{label}({p})" for p in defaulted if p not in given]
    return sorted(missing)


def test_a_default_no_call_passes_is_found():
    tree = ast.parse("def f(a, b=1, c=2, d=3, *, e=4):\n    return a\n"
                     "class Box:\n"
                     "    def __init__(self, size=0):\n        self.size = size\n"
                     "    def grow(self, by=1, *, to=None):\n        pass\n"
                     "    def shrink(self, by=1, floor=0):\n        pass\n"
                     "def g(box, args, opts):\n"
                     "    f(0, 5)\n    f(0, d=1)\n    Box(*args)\n"
                     "    box.grow(**opts)\n    box.shrink(2)\n")
    assert unset({"m": tree}, [tree], set()) == ["Box.shrink(floor)", "f(c)", "f(e)"]
    assert unset({"m": tree}, [tree], {"f", "Box"}) == []


def test_every_defaulted_parameter_is_passed():
    package = {p.name: parse(p) for p in MODULES}
    callers = list(package.values()) + [parse(p) for p in HARNESS]
    assert unset(package, callers, public_names(package["__init__.py"])) == []


def literal(call: ast.Call, parameter: str, positional: list[str],
            defaults: dict[str, ast.expr]) -> str | None:
    """``repr`` of the literal ``call`` binds ``parameter`` to, or None when
    the value is not a literal or a ``*`` or ``**`` argument hides it."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or \
            any(kw.arg is None for kw in call.keywords):
        return None
    given = dict(zip(positional, call.args))
    given.update((kw.arg, kw.value) for kw in call.keywords)
    node = given.get(parameter, defaults.get(parameter))
    try:
        return None if node is None else repr(ast.literal_eval(node))
    except ValueError:
        return None


def fixed(package: dict[str, ast.Module], callers: list[ast.Module],
          public: set[str]) -> list[str]:
    """``owner(parameter)``, or ``owner.method(parameter)``, of each
    parameter in ``package`` whose owner ``public`` lacks and that every
    call in ``callers`` spelling its callee, of which there is at least one,
    binds to the same literal."""
    found = []
    for tree in package.values():
        for owner, callee, positional, keyword_only, defaults in signatures(tree):
            if owner in public:
                continue
            spelled = [call for t in callers for call in calls(t, callee)]
            label = callee if callee == owner else f"{owner}.{callee}"
            for p in positional + keyword_only:
                values = {literal(call, p, positional, defaults) for call in spelled}
                if spelled and len(values) == 1 and None not in values:
                    found.append(f"{label}({p})")
    return sorted(found)


def test_a_parameter_every_call_fixes_is_found():
    tree = ast.parse("def f(a, b, c=2, *, d, e=(1, 2)):\n    return a\n"
                     "class Box:\n"
                     "    def __init__(self, size, rng):\n        self.size = size\n"
                     "    def grow(self, by):\n        pass\n"
                     "def g(x, args, opts):\n"
                     "    f(x, 3, d=x)\n    f(2, 3, 2, d='k')\n    f(3, b=3, c=2, d=x, e=(1, 2))\n"
                     "    Box(4, x).grow(1)\n    Box(4, rng=x).grow(*args)\n"
                     "    Box(size=4, rng=None).grow(**opts)\n")
    assert fixed({"m": tree}, [tree], set()) == ["Box(size)", "f(b)", "f(c)", "f(e)"]
    assert fixed({"m": tree}, [tree], {"f", "Box"}) == []


def test_no_parameter_takes_one_literal_from_every_call():
    package = {p.name: parse(p) for p in MODULES}
    callers = list(package.values()) + [parse(p) for p in HARNESS]
    assert fixed(package, callers, public_names(package["__init__.py"])) == []
