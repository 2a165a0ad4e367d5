"""The walk's wall crossing against the universe scan it replaced, and its
pivot tables against the exact coordinates.

``fanwalk.neighbor_candidates`` crosses a wall by one minimum-ratio test
on two rows of the node's pivot table, and each new candidate key gets one
pivot of that table (``fanwalk._crossed``) and a sign scan as its MESC
test. The reference below is the earlier crossing: try every vector of
the walk's learned universe beyond the wall (f . t < 0), solve the active
system of its completed cone, check the point against every row of h,
keep the cones that are MESCs over that universe, and of those keep the
ones certifying the lexicographically smallest vertex. Both must return
the same tuple at every wall of the walks on the models below, degenerate
ones included, on the tables the walk itself built and the universe it
ended with.

Each table holds det = |det| of the basis matrix times exact values: a
generator's row the coordinates of every column on that generator, from
the Fraction rows of ``cone_calculus.dual_basis``, and the slack row
den f . x - b at the node's vertex x, on h's rows and bounds as they are.
The seed's table is its LP's final tableau, with at most one pivot more;
after it, the walk pivots once per new candidate key and once per
re-crossed wall.
"""

import random

import pytest
from cone_calculus import absorbed, dot, dual_basis, ones, solve_unique
from conftest import coherent_intervals, fraction_rows, interval_hrep, interval_universe
from test_exactla import _leibniz_det
from test_graph_keys import tied_model
from test_walk_pinned import CASES, _envelope

from credalfans import fanwalk
from credalfans.credal import build_credal_hrep
from credalfans.exactla import vec
from credalfans.fanwalk import MescNode, _absorbed, _crossed, neighbor_candidates, walk
from credalfans.pri import pri_hrep


def reference_crossing(node, dropped, t, h, universe, learned):
    vectors = [vec(v) for v in universe.normals]  # as h's rows are written
    bounds = dict(fraction_rows(h))
    plain = [j for j, v in enumerate(vectors) if v in bounds and j in learned]
    shared = tuple(i for i in node.gens if i != dropped)
    eq_rows, eq_rhs = [ones(universe.dim)], [1]  # p . 1 = 1
    found = []
    for j in plain:
        if dot(vectors[j], t) >= 0:
            continue
        key = tuple(sorted(shared + (j,)))
        point = solve_unique(eq_rows + [vectors[i] for i in key],
                             eq_rhs + [bounds[vectors[i]] for i in key])
        if point is None or any(dot(point, f) < b for f, b in bounds.items()):
            continue
        dual = dual_basis([vectors[i] for i in key], universe.dim)
        if dual is None or absorbed(dual, (vectors[k] for k in plain if k not in key)):
            continue
        found.append(MescNode(key, point))
    if not found:
        return ()
    best = min(n.vertex for n in found)
    return tuple(sorted((n for n in found if n.vertex == best), key=lambda n: n.gens))


def _random_intervals(n, seed):
    lows, ups = coherent_intervals(random.Random(seed), n)
    return interval_hrep(lows, ups), interval_universe(n)


MODELS = dict(CASES)
MODELS.update({f"random_interval_n{n}_{s}": (lambda n=n, s=s: _random_intervals(n, 50 * n + s))
               for n in (3, 4, 5) for s in (1, 2)})  # CASES has interval_n4..n6
MODELS.update({f"tied_interval_n{n}_pri_hrep":
               (lambda n=n: pri_hrep(tied_model(random.Random(720 + n), n))) for n in (3, 4, 5)})
# the generic builder on inputs the interval builder cannot write: lower
# envelopes on 2n gambles, redundant ones included (degenerate vertices at n = 3, 4)
MODELS.update({f"redundant_envelope_n{n}":
               (lambda n=n: build_credal_hrep(_envelope(random.Random(720 + n), n))) for n in (3, 4, 5)})


def _walked(monkeypatch, name):
    """(graph, tables, table): the walk on MODELS[name], the tableau of
    each node as the walk crossed its walls (nodes it dropped later
    included), and the walk's rows as the walk ended, on its learned
    universe."""
    h, universe = MODELS[name]()
    tables, seen, cross = {}, [], fanwalk.neighbor_candidates

    def spy(tab, dropped, table):
        tables[tab.node.gens] = tab
        seen.append(table)
        return cross(tab, dropped, table)

    monkeypatch.setattr(fanwalk, "neighbor_candidates", spy)
    graph = walk(h, universe)
    assert graph.nodes and tables.keys() >= {node.gens for node in graph.nodes}
    return graph, tables, seen[0]


def _reads(h, table):
    """(column, den, b) of each p(y)'s unit row (e_y, b) of h in table, as
    the walk reads its vertices."""
    units = {}
    for k, (f, (_, b)) in enumerate(zip(h.rows, table)):
        if sum(f) == 1:
            units[f.index(1)] = (k, h.den, b)
    return [units[y] for y in sorted(units)]


def table_crossing(tab, dropped, table, h):
    """The MESC neighbours across a wall: each candidate key's table by one
    pivot of tab's, kept when the sign scan finds a MESC."""
    c = tab.node.gens.index(dropped)
    shared = tab.node.gens[:c] + tab.node.gens[c + 1:]
    crossed = (_crossed(tab, c, k, tuple(sorted(shared + (j,))), table, _reads(h, table))
               for j, k in neighbor_candidates(tab, dropped, table))
    return tuple(new.node for new in crossed if not _absorbed(new.node.gens, new.rows, table))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_crossing_matches_the_universe_scan_at_every_wall(monkeypatch, name):
    h, universe = MODELS[name]()
    graph, tables, table = _walked(monkeypatch, name)
    learned = {j for j, _ in table}
    for node in graph.nodes:
        tab = tables[node.gens]
        assert tab.node == node
        dual = dual_basis([universe.vectors[i] for i in node.gens], universe.dim)
        for i, t in zip(node.gens, dual):
            assert table_crossing(tab, i, table, h) == reference_crossing(
                node, i, t, h, universe, learned)


def test_degenerate_walls_are_covered(monkeypatch):
    # the l=1/6, u=1/4 reproducer has walls with two neighbours at one vertex
    h, _ = MODELS["interval_reproducer_n5"]()
    graph, tables, table = _walked(monkeypatch, "interval_reproducer_n5")
    widths = {len(table_crossing(tables[node.gens], i, table, h))
              for node in graph.nodes for i in node.gens}
    assert max(widths) > 1


@pytest.mark.parametrize("name", sorted(MODELS))
def test_tables_hold_det_times_the_exact_coordinates(monkeypatch, name):
    h, universe = MODELS[name]()
    graph, tables, table = _walked(monkeypatch, name)
    n = len(graph.nodes[0].vertex)
    columns = h.rows
    bounds = [b for _, b in table]
    rows = {j: f for (j, _), f in zip(fanwalk._active_table(h, universe), h.rows) if j is not None}
    for node in graph.nodes:
        tab = tables[node.gens]
        basis = [rows[i] for i in node.gens]
        assert tab.det == abs(_leibniz_det([(*col, 1) for col in zip(*basis)]))
        exact = dual_basis(basis, n)[:-1]  # the constant's row is not kept
        assert tab.rows[:-1] == [[tab.det * dot(t, f) for f in columns] for t in exact]
        assert tab.rows[-1] == [tab.det * (h.den * dot(f, node.vertex) - b)
                                for f, b in zip(columns, bounds)]
        assert all(type(a) is int for row in tab.rows for a in row)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_one_pivot_per_new_candidate_key(monkeypatch, name):
    # the seed's table takes at most one pivot after its LP (the constant
    # brought into the basis at a degenerate vertex), and after it _pivot
    # runs once per candidate key but the seed's, each a node until the
    # walk drops a row of it, and once per wall crossed again after such a
    # drop, on a table rebuilt from the dropped node's
    calls, keys, walls = [], set(), []
    pivot, cross = fanwalk._pivot, fanwalk.neighbor_candidates

    def candidates(tab, dropped, table):
        calls.append("wall")
        walls.append((tab.node.gens, dropped))
        keys.add(tab.node.gens)
        shared = tuple(i for i in tab.node.gens if i != dropped)
        for j, k in cross(tab, dropped, table):
            if table[k][0] is not None:  # else dropped by an earlier candidate of this wall
                keys.add(tuple(sorted(shared + (j,))))
            yield j, k

    monkeypatch.setattr(fanwalk, "_pivot", lambda *args: calls.append("pivot") or pivot(*args))
    monkeypatch.setattr(fanwalk, "neighbor_candidates", candidates)
    graph = walk(*MODELS[name]())
    seed = calls[:calls.index("wall")].count("pivot")
    assert seed <= 1
    assert {node.gens for node in graph.nodes} <= keys
    again = len(walls) - len(set(walls))
    assert calls.count("pivot") - seed == len(keys) - 1 + again
