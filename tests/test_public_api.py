"""No public surface without a caller: every name a credalfans module lists
in ``__all__``, every public member of a class it lists there, and every
defaulted parameter of a function it lists there must be used somewhere in
the package, the benchmark harness or the benchmark scripts, not only by
the tests. And one LP path: in the package, only ``polytope._dual_tableau``
reads the LP kernel ``exactla._optimum``, which has one start, kept on
the record.

A use of a name is a name read or an attribute access in the code (an
``ast.Name`` load or an ``ast.Attribute``) that resolves to the module
whose ``__all__`` lists it: the name is read in that module, imported
from it, or read as an attribute of it. A read of another object of the
same name (a caller's own ``dot``, a local ``ones``) does not count, nor
do an import alone, a string, a definition and the ``__all__`` entry
itself. Dunder names such as ``__version__`` are conventions, not API,
and are exempt.

A use of a class member (method, property or class-body attribute, record
fields included: NamedTuple and dataclass fields and the names in
``__slots__``) is an ``ast.Attribute`` read of its name;
``self.name`` counts, and so does a read inside the class itself, but
setting the field through a constructor keyword does not. A use of a
defaulted parameter is a call of the function's name that passes it, by
keyword or by position. A dataclass ``InitVar`` is a constructor input that
no instance keeps, not a member: with a default, it is a keyword-only
parameter of the class, used by a call of the class's name that passes it.
"""

import ast
import dataclasses
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


def _dotted(path, top):
    """The module name of the file path under the folder top."""
    parts = path.relative_to(top).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@cache
def _caller_files():
    """(module name, tree) of every caller file outside the tests."""
    return tuple((_dotted(path, folder if folder.name == "src" else ROOT), _parse(path))
                 for folder in CALLER_DIRS for path in folder.rglob("*.py")
                 if not path.name.startswith("test_"))


def _caller_nodes():
    for _, tree in _caller_files():
        yield from ast.walk(tree)


def _bindings(tree, module):
    """{local name: the dotted name it is imported as} for the file of the
    module named module, relative imports resolved against its package."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                name = a.name if a.asname else a.name.split(".")[0]
                bound[a.asname or name] = name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.rsplit(".", node.level)[0]
                base = f"{package}.{base}" if base else package
            for a in node.names:
                bound[a.asname or a.name] = f"{base}.{a.name}"
    return bound


def _resolve(node, bound, module):
    """The dotted name a Name or Attribute node reads: an imported name
    through its import, any other name as one of the module's own."""
    if isinstance(node, ast.Name):
        return bound.get(node.id, f"{module}.{node.id}")
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, bound, module)
        return base and f"{base}.{node.attr}"
    return None


def _exported_defs():
    """(module, definition node) for every class or function a package
    module lists in ``__all__``."""
    for path in PACKAGE.glob("*.py"):
        tree = _parse(path)
        exported = set(_exported(tree))
        for node in tree.body:
            if getattr(node, "name", None) in exported:
                yield path.stem, node


def _used_names(files):
    """The dotted names read in the (module name, tree) pairs files."""
    used = set()
    for module, tree in files:
        bound = _bindings(tree, module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(
                    node, ast.Attribute):
                used.add(_resolve(node, bound, module))
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _used_names(_caller_files())
    unused = sorted(
        qualified
        for path in PACKAGE.glob("*.py")
        for name in _exported(_parse(path))
        if not name.startswith("__")
        and (qualified := f"{_dotted(path, ROOT / 'src')}.{name}") not in used
    )
    assert not unused, f"public names only the tests use: {unused}"


def test_a_read_counts_only_where_it_resolves_to_the_defining_module():
    caller = ast.parse(
        "from credalfans import exactla\n"
        "from credalfans.exactla import rank as r\n"
        "from .exactla import vec\n"
        "def dot(u, v):\n"
        "    ones = 1\n"
        "    return dot(u, v), ones, r, exactla.rat, vec\n")
    used = _used_names([("credalfans.cli", caller)])
    assert {"credalfans.exactla.rank", "credalfans.exactla.rat", "credalfans.exactla.vec"} <= used
    assert not {"credalfans.exactla.dot", "credalfans.exactla.ones"} & used
    # in the defining module itself, its own name is read
    assert "credalfans.exactla.dot" in _used_names([("credalfans.exactla", caller)])


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
            names = [] if _initvar(node) else [node.target.id]
        else:
            names = []
        yield from (name for name in names if not name.startswith("_"))


def _initvar(node):
    """Whether the annotated class-body name node is a dataclass InitVar."""
    ann = node.annotation
    return isinstance(ann, ast.Subscript) and getattr(ann.value, "id", None) == "InitVar"


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
    exported function, and each defaulted InitVar of an exported class,
    that no call outside the tests passes."""
    calls = _calls_by_name()
    inputs = {f"{module}.{node.name}({stmt.target.id})"
              for module, node in _exported_defs() if isinstance(node, ast.ClassDef)
              for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and _initvar(stmt) and stmt.value is not None
              and not any(_passes(c, stmt.target.id, None) for c in calls.get(node.name, ()))}
    return inputs | {f"{module}.{node.name}({param})"
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
    ("polytope", "HPolytope", {"dim", "rows", "bounds", "den"}),
    ("polytope", "Vertex", {"point"}),
    ("pri", "PRIModel", {"space", "lower", "upper"}),
    ("pri", "PriCoherenceReport", {"proper", "coherent", "repaired"}),
    ("chains2mono", "LowerProbability", {"space", "table"}),
    ("chains2mono", "TwoMonotoneReport", {"ok", "violator", "lhs", "rhs"}),
    ("fanwalk", "MescNode", {"gens", "vertex"}),
    ("fanwalk", "MescGraph", {"nodes", "edges", "loose_rows"}),
    ("fanwalk", "FanReport", {"n_nodes", "n_edges", "degree_histogram",
                              "connected", "regular", "ok"}),
]


def _record_fields(cls):
    """The public fields of a live record class, whatever kind it is; a
    dataclass's InitVar inputs are not fields."""
    if hasattr(cls, "_fields"):  # NamedTuple
        return set(cls._fields)
    if dataclasses.is_dataclass(cls):
        return {f.name for f in dataclasses.fields(cls)}
    return {name for name in cls.__slots__ if not name.startswith("_")}


@pytest.mark.parametrize("module, name, fields", RECORDS, ids=[r[1] for r in RECORDS])
def test_the_member_gate_sees_every_record_field(module, name, fields):
    cls = getattr(importlib.import_module(f"credalfans.{module}"), name)
    assert _record_fields(cls) == fields
    (node,) = (n for n in _parse(PACKAGE / f"{module}.py").body
               if isinstance(n, ast.ClassDef) and n.name == name)
    assert fields <= set(_members(node))


# The one LP path: (module, top-level definition) of every read of the kernel.
LP_KERNEL = "_optimum"
LP_PATH = {("polytope", "_dual_tableau")}


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


# The kernel's one start, taken from the record: no scan for it is left in
# the package (the reference keeps one, in the tests), _optimum runs phase
# 2 once and nothing else in the package does, so a second start (a phase
# 1 beside the simplex's own basis) cannot come back unseen; and
# _dual_tableau, where every LP runs, builds no column for it, reading the
# record's kept dual.
def _calls(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_the_lp_kernel_has_one_start():
    runs = set()
    for path in PACKAGE.glob("*.py"):
        tree = _parse(path)
        assert "_simplex_start" not in {getattr(node, "id", getattr(node, "name", None))
                                        for node in ast.walk(tree)}, path.stem
        runs.update((path.stem, getattr(top, "name", None))
                    for top in tree.body for _ in _calls(top, "_to_optimum"))
    assert runs == {("exactla", "_optimum")}
    (kernel,) = [top for top in _parse(PACKAGE / "exactla.py").body
                 if getattr(top, "name", None) == "_optimum"]
    assert len(_calls(kernel, "_to_optimum")) == 1
    (solve,) = [top for top in _parse(PACKAGE / "polytope.py").body
                if getattr(top, "name", None) == "_dual_tableau"]
    assert not [node for node in ast.walk(solve)
                if isinstance(node, (ast.Tuple, ast.GeneratorExp, ast.ListComp))]
    assert not _calls(solve, "tuple")
    read = {node.attr for node in ast.walk(solve) if isinstance(node, ast.Attribute)}
    assert {"_dual", "_units"} <= read and "rows" not in read


# The read path's one minimum over a vertex set: exactla._min_dot on integer
# rows, each vertex over its own denominator, read where natural extension,
# the coherence report off the walk's vertex rows and the oracle's natex
# take it, so no Fraction scan through exactla.dot comes back on any of
# them, and no module clears denominators over a whole vertex set: none
# names _int_rows.
MIN_KERNEL = "_min_dot"
MIN_PATH = {("credal", "natural_extension"), ("credal", "_credal_vertices"),
            ("cli", "_oracle_natex")}


def test_the_natex_read_path_scans_integer_rows_only():
    reads = set()
    for path in PACKAGE.glob("*.py"):
        for top in _parse(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id == MIN_KERNEL:
                    reads.add((path.stem, getattr(top, "name", None)))
    assert reads == MIN_PATH
    for path in PACKAGE.glob("*.py"):
        assert "_int_rows" not in {getattr(node, "id", getattr(node, "name", None))
                                   for node in ast.walk(_parse(path))}, path.stem
    for module in ("credal", "cli"):
        tree = _parse(PACKAGE / f"{module}.py")
        assert not [node for node in ast.walk(tree) if
                    isinstance(node, ast.Name) and node.id == "dot"
                    or isinstance(node, ast.Attribute) and node.attr == "dot"
                    and isinstance(node.value, ast.Name) and node.value.id == "exactla"
                    or isinstance(node, ast.ImportFrom)
                    and any(a.name == "dot" for a in node.names)], module


# The two closed forms sum on integers and make one Fraction, their result:
# Choquet over the ints of the gamble and of its levels' values, the
# interval form over the model's kept bounds table, whose coherence it reads
# there too, not through is_coherent_pri and a report per query.
@pytest.mark.parametrize("module, function", [("chains2mono", "choquet"),
                                              ("pri", "natural_extension_pri")])
def test_the_closed_forms_make_one_fraction_for_their_result(module, function):
    (fn,) = [top for top in _parse(PACKAGE / f"{module}.py").body
             if isinstance(top, ast.FunctionDef) and top.name == function]
    names = [node.id for node in ast.walk(fn) if isinstance(node, ast.Name)]
    results = [node for node in ast.walk(fn) if isinstance(node, ast.Return)
               and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
               and node.value.func.id == "Fraction"]
    assert names.count("Fraction") == len(results) == 1
    assert "is_coherent_pri" not in names


# lp_min and the walk's seed read their vertex off the LP's final tableau,
# so neither solves the basic rows again (exactla.solve_unique) or takes a
# Fraction dot product.
RE_SOLVES = {"solve_unique", "dot"}


@pytest.mark.parametrize("module, function", [("polytope", "lp_min"), ("fanwalk", "_seed")])
def test_lp_min_reads_its_vertex_off_the_tableau(module, function):
    (fn,) = [top for top in _parse(PACKAGE / f"{module}.py").body
             if isinstance(top, ast.FunctionDef) and top.name == function]
    read = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(fn)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert not read & RE_SOLVES


# The integer credal polytope is scaled once, where it is built: the LP's
# dual, the kernel, the walk's table and seed and the vertex oracle read
# its integers as they are, with no denominator cleared and no Fraction
# made on the way in (the oracle makes Fractions of its feasible points
# only, the seed of its vertex).
SCALERS = {"_scaled", "rat", "vec"}


@pytest.mark.parametrize("module, function", [("polytope", "_dual_tableau"),
                                              ("exactla", "_optimum"),
                                              ("fanwalk", "_active_table"),
                                              ("fanwalk", "_seed"),
                                              ("polytope", "vertices_bruteforce")])
def test_the_record_is_read_as_integers(module, function):
    (fn,) = [top for top in _parse(PACKAGE / f"{module}.py").body
             if isinstance(top, ast.FunctionDef) and top.name == function]
    read = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(fn)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert not read & SCALERS
