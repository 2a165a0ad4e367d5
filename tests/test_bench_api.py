"""The package API the benchmark uses.

The files perfbench/*.py call the package by name. They are read here
with ast, never imported or run: every credalfans name they import, and
every attribute chain they take of an imported credalfans module
(``credal._credal_vertices.cache_clear``), must still resolve. A deletion
or rename that would make benchmark operations fail then fails this test.

Three uses are not visible as names: the tracer imports each module named
in its ``MODULES`` string tuple, the ``lp_min`` operation reads the
result's ``value`` and ``argmin.point``, and the harness's own test derives
a graph by ``dataclasses.replace`` with a subset of the nodes and the
edges among them. All are exercised here.
"""

import ast
import dataclasses
import importlib
import random
from pathlib import Path

import pytest

from conftest import coherent_intervals
from credalfans.credal import OutcomeSpace
from credalfans.fanwalk import MescGraph, graph_to_json, verify_graph
from credalfans.polytope import HPolytope, lp_min
from credalfans.pri import PRIModel, enumerate_extreme_pri, pri_hrep

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "perfbench").glob("*.py"))


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _chain(node, modules):
    """'module.attr.attr' for an attribute chain rooted at a module name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in modules:
        return ".".join([modules[node.id]] + attrs[::-1])
    return None


def package_references(source):
    """Dotted names the source takes from credalfans: each is a module
    followed by the attributes read from it."""
    tree = ast.parse(source)
    modules = {}  # local name -> module
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "credalfans":
                    refs.append(alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "credalfans":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if _module(full) is not None:
                    modules[alias.asname or alias.name] = full
                refs.append(full)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _chain(node, modules)
            if dotted is not None:
                refs.append(dotted)
    return sorted(set(refs))


def resolves(dotted):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        obj = _module(".".join(parts[:i]))
        if obj is not None:
            break
    else:
        return False
    for attr in parts[i:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_the_benchmark_uses_the_package():
    refs = {r for path in FILES for r in package_references(path.read_text())}
    assert "credalfans.polytope.lp_min" in refs
    assert "credalfans.credal._credal_vertices.cache_clear" in refs


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_package_name_the_benchmark_uses_exists(path):
    missing = [r for r in package_references(path.read_text()) if not resolves(r)]
    assert not missing, f"{path.name} uses names the package no longer has: {missing}"


def _tracer_modules():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no MODULES tuple")


@pytest.mark.parametrize("name", _tracer_modules())
def test_every_module_the_tracer_wraps_imports(name):
    importlib.import_module(f"credalfans.{name}")


def test_lp_min_result_has_what_the_lp_min_op_reads():
    simplex2 = HPolytope(2, ((1, 0), (0, 1)), (0, 0), 1)
    res = lp_min(simplex2, (1, 2))
    assert res.value == 1
    assert res.argmin.point == (1, 0)


def test_a_replaced_interval_graph_reads_as_one_built_fresh():
    # as perfbench/test_harness.py::_drop_vertex does: drop one vertex's
    # nodes and keep the edges among the others (e <= keys), after the
    # walk's handed-over pairs were read
    n = 7
    m = PRIModel(OutcomeSpace(tuple(f"x{i}" for i in range(n))),
                 *coherent_intervals(random.Random(1), n))
    _, graph = enumerate_extreme_pri(m)
    _, universe = pri_hrep(m)
    assert verify_graph(graph).n_edges == len(graph.pairs)
    gone = graph.nodes[0].vertex
    nodes = tuple(node for node in graph.nodes if node.vertex != gone)
    keys = {node.gens for node in nodes}
    edges = frozenset(e for e in graph.edges if e <= keys)
    replaced = dataclasses.replace(graph, nodes=nodes, edges=edges)
    fresh = MescGraph(nodes, edges)
    assert 0 < len(fresh.pairs) < len(graph.pairs)
    assert replaced == fresh
    assert replaced.pairs == fresh.pairs
    assert verify_graph(replaced) == verify_graph(fresh)
    assert graph_to_json(replaced, universe) == graph_to_json(fresh, universe)
