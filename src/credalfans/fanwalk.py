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
copy of the table, then a sign scan; its vertex is the only Fraction built.
Only the seed comes from an LP (``polytope.lp_min``, one per generic
direction tried), and its table from ``exactla.scaled_inverse``. No vertex
set is enumerated, but the walk inherits ``lp_min``'s oracle guards.

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

import itertools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .cones import SupportUniverse
from .exactla import _pivot, _scaled, format_rat, rat, scaled_inverse
from .polytope import HPolytope, SeedSearchError, lp_min

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

# Generic directions tried for the seed before the walk gives up.
SEED_ATTEMPTS = 32


class MescNode(NamedTuple):
    """A MESC plus the vertex it certifies. gens is the sorted tuple of the
    generators' indices in the engine's SupportUniverse; the universe is
    stored sorted, so index order is generator order."""

    gens: tuple
    vertex: tuple


@dataclass(frozen=True)
class MescGraph:
    """Walk result: nodes in canonical order, undirected edges as frozensets
    of node keys (gens), which readers take from ``pairs``. incomplete_walls
    records (gens, dropped index) walls where no neighbour was found, which
    can only happen on degenerate input. ``vertices`` and ``pairs`` are
    built on the first read, kept, and outside equality and hashing; no
    interval engine or export reads ``vertices``. It stays a dataclass:
    tests and the benchmark derive graphs by dataclasses.replace."""

    nodes: tuple
    edges: frozenset
    incomplete_walls: tuple = ()

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
    generator, in key order, then their slack f . x - b at the node's
    vertex x: a unit row (q e_y, b) has slack s = det (q x_y - b), so x_y
    = (s + det b) / (det q). The constant's row, which no step reads, is
    not kept."""

    node: MescNode
    det: int
    rows: list


def _active_table(h: HPolytope, universe: SupportUniverse) -> tuple:
    """One integer row (j, f, b) per row of h: its normal and bound scaled
    by the least q making b an integer; j is the normal's universe index,
    None off the universe. The walk's hypothesis: every non-constant
    universe vector is a row of h, so every generator has a bound
    (ValueError otherwise)."""
    index = {f: j for j, f in enumerate(universe.normals) if any(f)}
    if not index.keys() <= set(h.rows):
        raise ValueError("universe vector is not an inequality normal of the polytope")
    gcds = (math.gcd(b, h.den) for b in h.bounds)
    return tuple((index.get(f), tuple(h.den // g * a for a in f), b // g)
                 for f, b, g in zip(h.rows, h.bounds, gcds))


def _absorbed(key, rows, table) -> list:
    """The columns of the universe rows off key that the cone on key
    absorbs: those with no negative coordinate on any generator. The cone
    is a MESC when there are none."""
    return [k for k, (col, (j, _, _)) in enumerate(zip(zip(*rows[:len(key)]), table))
            if j is not None and j not in key and min(col) >= 0]


def neighbor_candidates(tab: _Tableau, dropped, table) -> tuple:
    """(j, column) of the universe rows j entering tab's basis across the
    wall opened by dropping its generator ``dropped``, sorted; table is the
    walk's ``_active_table(h, universe)``. Empty only when the polytope is
    degenerate across that wall or unbounded along the edge.

    The generator's dual row t is orthogonal to the rest of the basis and
    t . f_dropped > 0, so the edge leaving the vertex x across the wall is
    x + lambda t, lambda >= 0. It stops at the least ratio (x . f - b) /
    (-t . f) over the rows with t . f < 0, read off the slack row and the
    generator's row by cross-multiplication. The universe rows attaining it
    are tight there, and each completes the wall to a candidate cone.
    """
    num, den, entering = 0, 0, []  # least ratio num / den so far, rows attaining it
    row = tab.rows[tab.node.gens.index(dropped)]
    for k, ((j, _, _), a, r) in enumerate(zip(table, row, tab.rows[-1])):
        if a < 0:
            c = r * den + num * a if den else -1  # sign of r / -a - num / den
            if c < 0:
                num, den, entering = r, -a, [(j, k)]
            elif c == 0:
                entering.append((j, k))
    return tuple(sorted(e for e in entering if e[0] is not None))


def _crossed(tab: _Tableau, c: int, k: int, key, table, reads) -> _Tableau:
    """key's tableau, by one pivot on a copy of tab's table that brings
    column k into the basis in place of the generator in row c. Its vertex
    is read off the new slack row at the columns of the unit rows (q e_y,
    b), (column, q, b) for each y in reads."""
    rows = list(tab.rows)
    det = _pivot(rows, tab.det, c, k)
    rows.insert(key.index(table[k][0]), rows.pop(c))
    s = rows[-1]
    return _Tableau(MescNode(key, tuple(Fraction(s[u] + det * b, det * q) for u, q, b in reads)),
                    det, rows)


def _find_seed(h: HPolytope, table, direction):
    """The tableau of the first simplicial cone on universe rows tight at
    the vertex minimizing the direction that contains it, else None. A
    candidate's table comes from the ``scaled_inverse`` R of its basis
    matrix B, R . B = det I, and det = sum(R[-1]), as B's last column is
    the constant one. The cone may absorb other universe rows; the walk
    drops those (``_absorbed``)."""
    _, vtx = lp_min(h, direction)
    d, x = _scaled(vtx.point)
    _, w = _scaled(direction)
    tight = sorted((j, f) for j, f, b in table if j is not None and sum(map(mul, f, x)) == b * d)
    for gens in itertools.combinations(tight, h.dim - 1):
        inverse = scaled_inverse(list(zip(*(f for _, f in gens), (1,) * h.dim)))
        if inverse is None or any(sum(map(mul, t, w)) < 0 for t in inverse[:-1]):
            continue
        det = sum(inverse[-1])
        dx = [(det * a).numerator for a in vtx.point]
        rows = [[sum(map(mul, t, f)) for _, f, _ in table] for t in inverse[:-1]]
        rows.append([sum(map(mul, f, dx)) - b * det for _, f, b in table])
        return _Tableau(MescNode(tuple(j for j, _ in gens), vtx.point), det, rows)
    return None


def walk(h: HPolytope, universe: SupportUniverse) -> MescGraph:
    """Full adjacency walk: seed a MESC, then breadth-first cross every wall
    of every discovered node, in sorted-generator order, learning the
    universe. Deterministic given (h, universe): the k-th generic direction
    tried for the seed comes from random.Random(k).

    A drop (``forget``) removes the nodes keyed on a dropped row and their
    edges, and crosses again the wall of each remaining node that led to
    one of them, on a table rebuilt by one pivot from the removed node's.
    That node's vertex is degenerate: a row off its key is tight there,
    else the row dropped would not be implied. Only nodes at degenerate
    vertices keep their table once crossed.

    One pivot per new node but the seed, and one per wall crossed again;
    after the seed, the walk calls no ``scaled_inverse``.

    Raises SeedSearchError when no starting cone is found (after
    SEED_ATTEMPTS generic directions), ValueError when h and the universe
    break the hypotheses of ``_active_table``, and propagates
    EmptyPolytopeError when h has no vertices at all.
    """
    table = list(_active_table(h, universe))
    reads = [(k, table[k][1][y], table[k][2]) for y, k in enumerate(h._units) if k is not None]
    for attempt in range(SEED_ATTEMPTS):
        rng = random.Random(attempt)  # a generic direction
        nums, den = rng.sample(range(1, 9973), h.dim), rng.randint(7, 97)
        start = _find_seed(h, table, tuple(rat(a) / den for a in nums))
        if start is not None:
            break
    else:
        raise SeedSearchError(f"no seed MESC found in {SEED_ATTEMPTS} attempts")
    seen, kept = {}, {}  # key -> node; key -> table of a node at a degenerate vertex
    edges, incomplete = set(), {}
    queue = deque()  # (tableau, the generators whose walls to cross)

    def forget(absorbed):
        gone = {table[k][0] for k in absorbed}
        for k in absorbed:
            table[k] = (None, *table[k][1:])
        dead = {key for key in seen if not gone.isdisjoint(key)}
        for edge in [e for e in edges if not dead.isdisjoint(e)]:
            edges.remove(edge)
            live, lost = sorted(edge, key=dead.__contains__)
            if live not in dead:  # cross live's wall toward lost again
                (i,), (g,) = set(live) - set(lost), set(lost) - set(live)
                col = next(k for k, (j, _, _) in enumerate(table) if j == i)
                queue.append((_crossed(kept[lost], lost.index(g), col, live, table, reads), (i,)))
        for key in dead:
            del seen[key]
            kept.pop(key, None)
        for wall in [w for w in incomplete if w[0] in dead]:
            del incomplete[wall]

    def add(tab):
        if absorbed := _absorbed(tab.node.gens, tab.rows, table):
            forget(absorbed)
        seen[tab.node.gens] = tab.node
        if tab.rows[-1].count(0) >= h.dim:
            kept[tab.node.gens] = tab
        queue.append((tab, tab.node.gens))

    add(start)
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
                    add(_crossed(tab, c, k, other, table, reads))
                found = True
                edges.add(frozenset({key, other}))
            if not found:
                incomplete[key, i] = None
    ordered = tuple(seen[k] for k in sorted(seen))
    return MescGraph(ordered, frozenset(edges), tuple(incomplete))


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


def graph_to_json(g: MescGraph, universe: SupportUniverse) -> dict:
    """JSON-ready dict; generators are referenced by universe index. Each value
    object, such as a 0 or 1 of the immutable universe pri_hrep shares per n,
    is formatted once (_formatter): the id() memo is safe, as it lives for
    this call only and g and universe keep every keyed object alive."""
    gens = set().union(*(node.gens for node in g.nodes))
    if gens and (min(gens) < 0 or max(gens) >= len(universe)):
        raise ValueError("graph generator index outside the universe")
    fmt = _formatter()
    return {
        "universe": [fmt(v) for v in universe.vectors],
        "nodes": [{"id": i, "vertex": fmt(node.vertex), "generators": list(node.gens)}
                  for i, node in enumerate(g.nodes)],
        "edges": [[i, j] for i, j in g.pairs],
    }
