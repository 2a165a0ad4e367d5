"""Adjacency walk over maximal elementary simplicial cones of a normal fan.

Instead of enumerating all vertices of a credal polytope blindly, the walk
seeds one MESC inside the normal cone of an easily found vertex, then
repeatedly crosses cone walls: dropping one generator of a MESC opens a
facet, and the rows entering the edge beyond it that complete the facet to
another MESC are its neighbours. The walk yields the vertex set and the
cone adjacency graph together.

Nodes are keyed by sorted universe indices. Each queued node keeps one
integer table (``_Tableau``) on the credal set's integer rows, read as
they are (``_active_table``). A wall is crossed as in Avis and Fukuda's
pivot: a ratio test on two table rows gives the entering rows, and each
new key costs one fraction-free pivot (``exactla._pivot``, as in lrs) on a
copy of the table, then a sign scan; its vertex is the only Fraction built,
one per distinct coordinate in the walk.
As in lrs, the seed is the optimal basis of one LP, its table read off the
final tableau (``_seed``); the walk inherits that LP's oracle guards.

The walk learns its universe. A normal fan's rays are the facet normals
alone (Ziegler, Lectures on Polytopes, 1995), but every other universe row
adds cones. The sign scan of a new cone finds the universe rows r off its
key whose table column has no negative coordinate on any generator. Each
is implied: the cone's vertex x is feasible (the ratio test or the seed's
LP found it) and its generators are tight there, so f_r = sum c_g f_g +
c_0 1 with every c_g >= 0 gives f_r . p >= sum c_g b_g + c_0 = f_r . x >=
b_r on the credal set. The walk drops them, so the cone is a MESC, and
repairs the nodes built so far (``walk``). Each certificate uses rows
still in the universe, so the rows kept imply the dropped ones and
describe the same credal set, and a MESC over the larger universe is one
over the smaller. Hypothesis: the walk keeps the facet normals alone, as
when it meets a cone absorbing each other row. Then on a simple polytope
each vertex's normal cone is one MESC, and the walk builds one node per
vertex.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import KW_ONLY, InitVar, dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import NamedTuple

from .exactla import _pivot, format_rat
from .polytope import HPolytope, _dual_tableau

__all__ = [
    "MescNode",
    "MescGraph",
    "FanReport",
    "neighbor_candidates",
    "walk",
    "verify_graph",
    "graph_to_dot",
    "graph_to_json",
]

class MescNode(NamedTuple):
    """A MESC plus the vertex it certifies. gens is the sorted tuple of the
    generators' indices in the engine's universe (``cones.support_universe``);
    the universe is stored sorted, so index order is generator order."""

    gens: tuple
    vertex: tuple


@dataclass(frozen=True)
class MescGraph:
    """Walk result: nodes in canonical order, undirected edges as frozensets
    of node keys (gens), which readers take from ``pairs``. incomplete_walls
    records (gens, dropped index) walls where no neighbour was found, which
    can only happen on degenerate input. loose_rows (``walk``; None on pri
    and chain graphs), ``vertices`` and ``pairs`` are outside equality and
    hashing; the last two are built on the first read and kept, and no
    interval engine, export or coherence check reads ``vertices``. An engine
    may pass the pairs as ``positions``. Tests and the benchmark derive
    graphs by dataclasses.replace, which derives the pairs anew."""

    nodes: tuple
    edges: frozenset
    incomplete_walls: tuple = ()
    loose_rows: frozenset | None = field(default=None, compare=False)
    _: KW_ONLY
    positions: InitVar[tuple | None] = None

    def __post_init__(self, positions):
        if positions is not None:
            self.__dict__["pairs"] = positions

    @cached_property
    def vertices(self) -> frozenset:
        """The certified vertices."""
        return frozenset(n.vertex for n in self.nodes)

    @cached_property
    def pairs(self) -> tuple:
        """The edges as sorted pairs (i, j), i < j, of positions in nodes."""
        index = {node.gens: i for i, node in enumerate(self.nodes)}
        pairs = ((index[a], index[b]) for a, b in self.edges)
        return tuple(sorted((i, j) if i < j else (j, i) for i, j in pairs))


class _Tableau(NamedTuple):
    """A queued node and its table, each entry det = |det| of the basis
    matrix times the exact value. Columns are the walk's rows
    (``_active_table``). Rows are the columns' coordinates on each
    generator, in key order, then their slack den f . x - b at the node's
    vertex x: a unit row (e_y, b) has slack s = det (den x_y - b), so x_y
    = (s + det b) / (det den). The constant's row, which no step reads, is
    not kept."""

    node: MescNode
    det: int
    rows: list


def _active_table(h: HPolytope, universe: tuple) -> tuple:
    """One row (j, b) per row f of h: j is f's universe index, and b its
    bound over h.den as it is. The walk's hypothesis: the non-constant
    universe vectors are h's nonzero rows (ValueError otherwise), as the
    seed's basis may hold any row of h. So j is None only at a row the walk
    dropped, or at h's zero row, its one at dim 1."""
    index = {f: j for j, f in enumerate(universe) if any(f)}
    if index.keys() != {f for f in h.rows if any(f)}:
        raise ValueError("non-constant universe vectors are not the polytope's inequality normals")
    return tuple((index.get(f), b) for f, b in zip(h.rows, h.bounds))


def _absorbed(key, rows, table) -> list:
    """The columns of the universe rows off key that the cone on key
    absorbs: those with no negative coordinate on any generator. The cone
    is a MESC when there are none."""
    return [k for k, (col, (j, _)) in enumerate(zip(zip(*rows[:len(key)]), table))
            if j is not None and j not in key and min(col) >= 0]


def neighbor_candidates(tab: _Tableau, dropped, table) -> tuple:
    """(j, column) of the universe rows j entering tab's basis across the
    wall opened by dropping its generator ``dropped``, sorted; table is the
    walk's ``_active_table(h, universe)``, whose rows with j None the walk
    dropped. Empty only when the polytope is degenerate across that wall or
    unbounded along the edge.

    The generator's dual row t is orthogonal to the rest of the basis and
    t . f_dropped > 0, so the edge leaving the vertex x across the wall is
    x + lambda t, lambda >= 0. It stops at the least ratio (x . f - b) /
    (-t . f) over the rows with t . f < 0, read off the slack row and the
    generator's row by cross-multiplication, at those rows alone: the
    negative entries of the generator's row. The universe rows attaining it
    are tight there, and each completes the wall to a candidate cone.
    """
    num, den, entering = 0, 0, []  # least ratio num / den so far, columns attaining it
    row, slack = tab.rows[tab.node.gens.index(dropped)], tab.rows[-1]
    for k in [k for k, a in enumerate(row) if a < 0]:
        a, r = row[k], slack[k]
        c = r * den + num * a if den else -1  # sign of r / -a - num / den
        if c < 0:
            num, den, entering = r, -a, [k]
        elif c == 0:
            entering.append(k)
    return tuple(sorted((j, k) for k in entering if (j := table[k][0]) is not None))


@cache
def _target(dim: int) -> tuple:
    """The seed LP's integer target at dim, drawn once from random.Random(0)."""
    return tuple(random.Random(0).sample(range(1, 9973), dim))


def _crossed(tab: _Tableau, c: int, k: int, key, table, reads, value=Fraction) -> _Tableau:
    """key's tableau, by one pivot on a copy of tab's table, sharing the
    rows ``_pivot`` leaves, that brings column k into the basis in place of
    the generator in row c. Its vertex is read off the new slack row at the
    columns of the unit rows (e_y, b), (column, den, b) for each y in
    reads, each coordinate value(numerator, denominator)."""
    rows = list(tab.rows)
    det = _pivot(rows, tab.det, c, k)
    rows.insert(key.index(table[k][0]), rows.pop(c))
    s = rows[-1]
    return _Tableau(MescNode(key, tuple(value(s[u] + det * b, det * q) for u, q, b in reads)),
                    det, rows)


def _seed(h: HPolytope, table) -> _Tableau:
    """The tableau of the cone on the optimal basis of the walk's one LP,
    for the integer target w of random.Random(0) drawn once per dim
    (``_target``, ``_dual_tableau``). On h's rows, table's columns, its
    final tableau is the walk's table: the basic rows, by universe index,
    are the generators' rows, and the cost row, det (den f . x - b) at the
    vertex x, the slack row; x is read off the cost row's inverse block.
    When neither +- 1 column is basic, x is degenerate: one pivot at the
    least ratio of the +1 column, so w stays in the cone, brings the
    constant in. Its reduced cost is 0, so the cost row and x stay the same.
    The walk drops the universe rows the cone absorbs (``_absorbed``)."""
    t, det, basis = _dual_tableau(h, _target(h.dim))
    m = len(table)  # the +1 column; then -1, the levels and the inverse block
    if m not in basis and m + 1 not in basis:
        c = min((i for i, row in enumerate(t[:-1]) if row[m] > 0),
                key=lambda i: Fraction(t[i][m + 2], t[i][m]))
        det = _pivot(t, det, c, m)
        basis[c] = m
    gens = sorted((table[k][0], i) for i, k in enumerate(basis) if k < m)
    value = cache(Fraction)  # one Fraction per distinct coordinate
    vertex = tuple(value(a, det * h.den) for a in t[-1][m + 3:])
    return _Tableau(MescNode(tuple(j for j, _ in gens), vertex), det,
                    [t[i][:m] for _, i in gens] + [t[-1][:m]])


@lru_cache(maxsize=64)
def walk(h: HPolytope, universe: tuple) -> MescGraph:
    """Full adjacency walk over universe (``cones.support_universe`` of h's
    rows): seed a MESC, then breadth-first cross every wall of every
    discovered node, in sorted-generator order, learning the universe.
    Deterministic given (h, universe): the seed's target comes from
    random.Random(0), and the graphs of the 64 latest records are kept (a
    caller must not change one), so a coherence check (``credal``) and a
    walk of one record walk once. The wall a node was entered by from a
    parent at a non-degenerate vertex is not crossed: the only tight row off
    it there is the generator dropped, so it leads back to the parent alone.

    A nonempty record leaves no wall open. It is bounded, so the edge beyond
    a wall ends at a point y where a row r negative on the edge is tight. If
    r was dropped, its certificate f_r = sum c_g f_g + c_0 1 (c_g >= 0, on
    kept rows: a later drop has its own) gives b_r = f_r . y >= sum c_g b_g
    + c_0 >= b_r, so each g with c_g > 0 is tight at y, and one of them is
    negative on the edge, as f_r is and the constant is not: a kept
    entering row.

    A drop (``forget``) removes the nodes keyed on a dropped row and their
    edges, and crosses again the wall of each remaining node that led to
    one of them, on a table rebuilt by one pivot from the removed node's.
    That node's vertex is degenerate: a row off its key is tight there,
    else the row dropped would not be implied. Only nodes at degenerate
    vertices keep their table once crossed.

    One LP, for the seed, with at most one pivot after it; then one pivot
    per new node and one per wall crossed again. loose_rows are the rows
    (table columns) tight at no node added, each slack row read at the
    columns still loose. A complete walk meets every vertex, a dropped row
    keeps its column and a node ``forget`` removes is a vertex: none is tight.

    Raises ValueError when h and the universe break the hypothesis of
    ``_active_table``, and as ``polytope._dual_tableau``: OracleGuardError
    past the oracle's guards, EmptyPolytopeError when h is empty.
    """
    table = list(_active_table(h, universe))
    reads = [(k, h.den, table[k][1]) for k in h._units if k is not None]
    value = cache(Fraction)  # one Fraction per distinct (numerator, denominator) pair
    seen, kept = {}, {}  # key -> node; key -> table of a node at a degenerate vertex
    edges, incomplete, loose = set(), {}, set(range(len(table)))  # loose: tight at no node yet
    queue = deque()  # (tableau, the generators whose walls to cross)

    def forget(absorbed):
        gone = {table[k][0] for k in absorbed}
        for k in absorbed:
            table[k] = (None, table[k][1])
        dead = {key for key in seen if not gone.isdisjoint(key)}
        for edge in [e for e in edges if not dead.isdisjoint(e)]:
            edges.remove(edge)
            live, lost = sorted(edge, key=dead.__contains__)
            if live not in dead:  # cross live's wall toward lost again
                (i,), (g,) = set(live) - set(lost), set(lost) - set(live)
                col = next(k for k, (j, _) in enumerate(table) if j == i)
                tab = _crossed(kept[lost], lost.index(g), col, live, table, reads, value)
                queue.append((tab, (i,)))
        for key in dead:
            del seen[key]
            kept.pop(key, None)
        for wall in [w for w in incomplete if w[0] in dead]:
            del incomplete[wall]

    def add(tab, entered=None):
        if absorbed := _absorbed(tab.node.gens, tab.rows, table):
            forget(absorbed)
        slack = tab.rows[-1]
        loose.difference_update([k for k in loose if not slack[k]])
        seen[tab.node.gens] = tab.node
        if slack.count(0) >= h.dim:
            kept[tab.node.gens] = tab
        queue.append((tab, [g for g in tab.node.gens if g != entered]))

    add(_seed(h, table))
    while queue:
        tab, walls = queue.popleft()
        key = tab.node.gens
        if key not in seen:
            continue  # dropped since it was queued
        for i in walls:
            c = key.index(i)
            shared, found = key[:c] + key[c + 1:], False
            for j, k in neighbor_candidates(tab, i, table):
                if table[k][0] is None:
                    continue  # dropped by an earlier candidate of this wall
                other = tuple(sorted(shared + (j,)))
                if other not in seen:
                    add(_crossed(tab, c, k, other, table, reads, value), None if key in kept else j)
                found = True
                edges.add(frozenset({key, other}))
            if not found:
                incomplete[key, i] = None
    ordered = tuple(seen[k] for k in sorted(seen))
    return MescGraph(ordered, frozenset(edges), tuple(incomplete), frozenset(loose))


class FanReport(NamedTuple):
    """Structural summary of a MESC graph; the engine's points count its vertices."""

    n_nodes: int
    n_edges: int
    degree_histogram: tuple  # sorted (degree, count) pairs
    connected: bool
    regular: bool
    ok: bool


def verify_graph(g: MescGraph) -> FanReport:
    """Degree histogram, connectivity, and regularity of the walk result,
    on adjacency lists of node positions: structure only, no vertex read.

    ok means: connected, no incomplete walls, and all degrees equal.
    Regularity assumes non-degenerate walls, with no tie in the walk's
    ratio test: each of a node's n - 1 walls then has one neighbour, and a
    tie can give a wall two neighbours or none.
    """
    adj = [[] for _ in g.nodes]
    for i, j in g.pairs:
        adj[i].append(j)
        adj[j].append(i)
    hist = Counter(map(len, adj))
    seen = [False] * len(adj)
    stack = [0] if adj else []
    while stack:
        i = stack.pop()
        if not seen[i]:
            seen[i] = True
            stack.extend(adj[i])
    connected, regular = all(seen), len(hist) <= 1
    return FanReport(
        n_nodes=len(g.nodes),
        n_edges=len(g.pairs),
        degree_histogram=tuple(sorted(hist.items())),
        connected=connected,
        regular=regular,
        ok=connected and regular and not g.incomplete_walls,
    )


def _formatter():
    """format_rat of a vector as a list of strings, memoized on each value's id()."""
    memo = {}
    return lambda v: [memo[k] if (k := id(a)) in memo else memo.setdefault(k, format_rat(a))
                      for a in v]


def graph_to_dot(g: MescGraph) -> str:
    """Undirected DOT rendering; node labels are the certified vertices."""
    fmt = _formatter()
    lines = ["graph fan {"]
    for i, node in enumerate(g.nodes):
        lines.append(f'  n{i} [label="{",".join(fmt(node.vertex))}"];')
    for a, b in g.pairs:
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=16)
def _universe_strings(universe: tuple) -> tuple:
    """The universe's export strings, kept for the 16 latest universes (pri
    shares one per n): each row over its first nonzero entry, the constant
    as the ones vector."""
    return tuple(tuple(format_rat(Fraction(a, c)) for a in v)
                 if (c := next((a for a in v if a), 0)) else ("1",) * len(v) for v in universe)


def graph_to_json(g: MescGraph, universe: tuple) -> dict:
    """JSON-ready dict; generators are referenced by universe index, and the
    universe is printed by ``_universe_strings``. Each vertex value object
    is formatted once (_formatter): the id() memo is safe, as it lives for
    this call only and g keeps every keyed object alive."""
    gens = set().union(*(node.gens for node in g.nodes))
    if gens and (min(gens) < 0 or max(gens) >= len(universe)):
        raise ValueError("graph generator index outside the universe")
    fmt = _formatter()
    return {
        "universe": [list(v) for v in _universe_strings(universe)],
        "nodes": [{"id": i, "vertex": fmt(node.vertex), "generators": list(node.gens)}
                  for i, node in enumerate(g.nodes)],
        "edges": [[i, j] for i, j in g.pairs],
    }
