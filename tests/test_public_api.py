"""No public surface without a caller: every name a credalfans module lists
in ``__all__``, every public member of a class it lists there, and every
defaulted parameter of a function it lists there must be used somewhere in
the package, the benchmark harness or the benchmark scripts, not only by
the tests. And one LP path: in the package, only ``polytope._dual_solve``
reads the LP kernel ``exactla.simplex_each``.

A use of a name is a name read or an attribute access in the code (an
``ast.Name`` load or an ``ast.Attribute``); an import alone, a string, a
definition and the ``__all__`` entry itself do not count. Dunder names such
as ``__version__`` are conventions, not API, and are exempt.

A use of a class member (method, property or class-body attribute, record
fields included: NamedTuple and dataclass fields and the names in
``__slots__``) is an ``ast.Attribute`` read of its name;
``self.name`` counts, and so does a read inside the class itself, but
setting the field through a constructor keyword does not. A use of a
defaulted parameter is a call of the function's name that passes it, by
keyword or by position.
"""

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credalfans"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench", ROOT / "benchmarks")

# The oracle guards' knobs: the pinned refusal text tells the user to "raise
# max_dim explicitly", and lifting the guards (a ROADMAP item of its own)
# decides what becomes of them.
UNPASSED_PARAMETERS_ALLOWED = {
    "polytope.vertices_bruteforce(max_dim)",
    "polytope.vertices_bruteforce(max_constraints)",
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
    """Public methods, properties and class-body attributes of a class,
    the fields a class lists in ``__slots__`` included."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if names == ["__slots__"]:
                names = list(ast.literal_eval(node.value))
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


def _unpassed_parameters():
    """'module.function(parameter)' for each defaulted parameter of an
    exported function that no call outside the tests passes."""
    calls = _calls_by_name()
    return {f"{module}.{node.name}({param})"
            for module, node in _exported_defs()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for param, position in _defaulted(node)
            if not any(_passes(c, param, position) for c in calls.get(node.name, ()))}


def test_every_public_member_and_parameter_has_a_caller_outside_the_tests():
    read = {node.attr for node in _caller_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused = {f"{module}.{node.name}.{member}"
              for module, node in _exported_defs() if isinstance(node, ast.ClassDef)
              for member in _members(node) if member not in read}
    unused = sorted((unused | _unpassed_parameters()) - UNPASSED_PARAMETERS_ALLOWED)
    assert not unused, f"public members or parameters only the tests use: {unused}"


def test_every_exemption_names_a_parameter_still_unpassed():
    # an exemption must not outlive its subject: the parameter must still
    # exist, keep its default and have no caller outside the tests
    stale = sorted(UNPASSED_PARAMETERS_ALLOWED - _unpassed_parameters())
    assert not stale, f"exemptions for parameters that are gone or now passed: {stale}"


# The package's records: (module, class, public fields).
RECORDS = [
    ("credal", "OutcomeSpace", {"names"}),
    ("credal", "Gamble", {"space", "values"}),
    ("credal", "Assessment", {"gamble", "lower"}),
    ("credal", "LowerPrevision", {"space", "assessments"}),
    ("credal", "AssessmentCheck", {"lower", "attained"}),
    ("credal", "CoherenceReport", {"coherent", "empty", "checks"}),
    ("polytope", "HPolytope", {"dim", "inequalities", "equalities"}),
    ("polytope", "Vertex", {"point"}),
    ("cones", "SupportUniverse", {"vectors"}),
    ("pri", "PRIModel", {"space", "lower", "upper"}),
    ("pri", "PriCoherenceReport", {"proper", "coherent", "repaired"}),
    ("chains2mono", "LowerProbability", {"space", "table"}),
    ("chains2mono", "TwoMonotoneReport", {"ok", "violator", "lhs", "rhs"}),
    ("fanwalk", "MescNode", {"gens", "vertex"}),
    ("fanwalk", "MescGraph", {"nodes", "edges", "incomplete_walls"}),
    ("fanwalk", "FanReport", {"n_nodes", "n_edges", "degree_histogram",
                              "connected", "regular", "ok"}),
]


def _record_fields(cls):
    """The public fields of a live record class, whatever kind it is."""
    if hasattr(cls, "_fields"):  # NamedTuple
        return set(cls._fields)
    if hasattr(cls, "__dataclass_fields__"):
        return set(cls.__dataclass_fields__)
    return {name for name in cls.__slots__ if not name.startswith("_")}


@pytest.mark.parametrize("module, name, fields", RECORDS, ids=[r[1] for r in RECORDS])
def test_the_member_gate_sees_every_record_field(module, name, fields):
    cls = getattr(importlib.import_module(f"credalfans.{module}"), name)
    assert _record_fields(cls) == fields
    (node,) = (n for n in _parse(PACKAGE / f"{module}.py").body
               if isinstance(n, ast.ClassDef) and n.name == name)
    assert fields <= set(_members(node))


# The one LP path: (module, top-level definition) of every read of the kernel.
LP_KERNEL = "simplex_each"
LP_PATH = {("polytope", "_dual_solve")}


def test_only_the_one_lp_path_calls_the_lp_kernel():
    reads, imports = set(), set()
    for path in PACKAGE.glob("*.py"):
        for top in _parse(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id == LP_KERNEL or (
                        isinstance(node, ast.Attribute) and node.attr == LP_KERNEL):
                    reads.add((path.stem, getattr(top, "name", None)))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    imports.update((path.stem, a.asname) for a in node.names
                                   if a.name.split(".")[-1] == LP_KERNEL)
    assert reads == LP_PATH
    assert imports == {("polytope", None)}  # bound under its own name, where it is read
