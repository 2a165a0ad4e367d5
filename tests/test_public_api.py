"""No public surface without a caller: every name a credalfans module lists
in ``__all__``, every public member of a class it lists there, and every
defaulted parameter of a function it lists there must be used somewhere in
the package, the benchmark harness or the benchmark scripts, not only by
the tests.

A use of a name is a name read or an attribute access in the code (an
``ast.Name`` load or an ``ast.Attribute``); an import alone, a string, a
definition and the ``__all__`` entry itself do not count. Dunder names such
as ``__version__`` are conventions, not API, and are exempt.

A use of a class member (method, property or class-body attribute,
dataclass fields included) is an ``ast.Attribute`` read of its name;
``self.name`` counts, and so does a read inside the class itself, but
setting the field through a constructor keyword does not. A use of a
defaulted parameter is a call of the function's name that passes it, by
keyword or by position.
"""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credalfans"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench", ROOT / "benchmarks")

# The oracle guards' knobs: the pinned refusal text tells the user to "raise
# max_dim explicitly", and lifting the guards (a ROADMAP item of its own)
# decides what becomes of them.
UNPASSED_PARAMETERS_ALLOWED = {
    "polytope.vertices_bruteforce(max_dim)",
    "polytope.vertices_bruteforce(max_constraints)",
    "polytope.lp_min(max_dim)",
    "polytope.lp_min(max_constraints)",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@cache
def _caller_trees():
    return tuple(_parse(path) for folder in CALLER_DIRS for path in folder.rglob("*.py")
                 if not path.name.startswith("test_"))


def _caller_nodes():
    for tree in _caller_trees():
        yield from ast.walk(tree)


def _exported_defs():
    """(module, definition node) for every class or function a package
    module lists in ``__all__``."""
    for path in PACKAGE.glob("*.py"):
        tree = _parse(path)
        exported = set(_exported(tree))
        for node in tree.body:
            if getattr(node, "name", None) in exported:
                yield path.stem, node


def _used_names():
    used = set()
    for node in _caller_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _used_names()
    unused = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name in _exported(_parse(path))
        if not name.startswith("__") and name not in used
    )
    assert not unused, f"public names only the tests use: {unused}"


def _members(cls):
    """Public methods, properties and class-body attributes of a class."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (name for name in names if not name.startswith("_"))


def _defaulted(fn):
    """(name, position or None) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], start=first):
        yield a.arg, i
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def _passes(call, name, position):
    if any(k.arg in (name, None) for k in call.keywords):  # None is **kwargs
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _calls_by_name():
    calls = {}
    for node in _caller_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)
    return calls


def test_every_public_member_and_parameter_has_a_caller_outside_the_tests():
    read = {node.attr for node in _caller_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    calls = _calls_by_name()
    unused = []
    for module, node in _exported_defs():
        if isinstance(node, ast.ClassDef):
            unused += [f"{module}.{node.name}.{member}"
                       for member in _members(node) if member not in read]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unused += [f"{module}.{node.name}({param})"
                       for param, position in _defaulted(node)
                       if not any(_passes(c, param, position) for c in calls.get(node.name, ()))]
    unused = sorted(set(unused) - UNPASSED_PARAMETERS_ALLOWED)
    assert not unused, f"public members or parameters only the tests use: {unused}"
