"""Adjacency walk over maximal elementary simplicial cones of a normal fan.

Instead of enumerating all vertices of a credal polytope blindly, the walk
seeds one MESC inside the normal cone of an easily found vertex, then
repeatedly crosses cone walls: dropping one generator of a MESC opens a
facet, and the rows entering the edge beyond it that complete the facet to
another MESC are its neighbours. The walk yields the vertex set and the
cone adjacency graph together.

Nodes are keyed by sorted universe indices. Each node's dual basis is
computed once, from the polytope's rows scaled to integers once per walk:
its rows (``exactla.scaled_inverse``) are positive multiples of the exact
dual rows. The row t of a generator is both the wall normal and the
direction of the edge leaving the node's vertex x across that wall, so a
wall is crossed by one minimum-ratio test (Avis and Fukuda's pivot) on
integer rows: the rows attaining the least ratio lambda* enter, and the
neighbour's vertex x + lambda* t is the only Fraction built. The MESC test
is an integer sign test. Only the seed comes from an LP: one exact simplex
(``polytope.lp_min``) per generic direction tried, whose vertex's tight
rows give the seed's generators. No vertex set is enumerated, but the
walk inherits ``lp_min``'s oracle guards on dimension and row count.

The walk is deterministic for a fixed model. Node count is bounded
by the number of feasible MESCs over the universe; for models whose normal
cones are themselves simplicial this is exactly one node per vertex.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .cones import SupportUniverse
from .exactla import _scaled, format_rat, ones, rat, scaled_inverse
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
    built on the first read, kept, and outside equality and hashing. It stays
    a dataclass: tests and the benchmark derive graphs by dataclasses.replace."""

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


class _Table(NamedTuple):
    """The walk's integer rows: (j, f, b) per distinct inequality normal of
    h, and the universe rows f by their universe index j."""

    rows: tuple
    gens: dict


def _active_table(h: HPolytope, universe: SupportUniverse) -> _Table:
    """One integer row (j, f, b) per distinct inequality normal of h and its
    tightest bound, scaled together to integers; j is the normal's universe
    index, None off the universe.

    These are the walk's hypotheses: h's only equality is p . 1 = 1, so an
    edge direction is any vector orthogonal to the constant, and every
    non-constant universe vector is an inequality normal of h, so every
    generator has a bound. ValueError otherwise.
    """
    one = ones(universe.dim)
    if h.equalities != ((one, 1),):
        raise ValueError("the walk needs p . 1 = 1 as the polytope's only equality")
    bounds: dict = {}
    for f, b in h.inequalities:
        if f not in bounds or b > bounds[f]:
            bounds[f] = b
    index = {v: i for i, v in enumerate(universe.vectors) if len(set(v)) > 1}
    if not index.keys() <= bounds.keys():
        raise ValueError("universe vector is not an inequality normal of the polytope")
    scaled = ((index.get(f), _scaled(f + (b,))[1]) for f, b in bounds.items())
    rows = tuple((j, row[:-1], row[-1]) for j, row in scaled)
    return _Table(rows, {j: f for j, f, _ in rows if j is not None})


def _mesc_dual(key, table: _Table, cache: dict):
    """Integer dual rows of the cone on these universe indices when it is a
    MESC over the universe, else None; memoized in cache.

    The basis is the generators' integer rows plus the constant-one vector.
    ``exactla.scaled_inverse`` of the matrix with those columns gives one
    row per basis vector, in that order, each a positive multiple of the
    exact dual row, so t . v has the sign of v's coordinate on that basis
    vector. The cone absorbs v when its coordinates on the generators are
    all nonnegative; it is a MESC when it absorbs no other universe row."""
    if key not in cache:
        dual = scaled_inverse([(*col, 1) for col in zip(*(table.gens[i] for i in key))])
        if dual is not None and any(all(sum(map(mul, t, v)) >= 0 for t in dual[:-1])
                                    for j, v in table.gens.items() if j not in key):
            dual = None
        cache[key] = dual
    return cache[key]


def neighbor_candidates(node: MescNode, dropped, t, table: _Table, cache: dict):
    """MESC neighbours of node across the wall opened by dropping universe
    index ``dropped``; t is the node's dual-basis row of that generator, or
    a positive multiple of it.

    t is orthogonal to the other generators and to the constant, and
    t . f_dropped > 0, so the edge leaving the node's vertex x across the
    wall is x + lambda t, lambda >= 0. It stops at the least ratio
    lambda* = (x . f - b) / (-t . f) over the rows of the polytope with
    t . f < 0, compared on table's integer rows by cross-multiplication. The
    candidates are the universe rows attaining lambda*, which are the rows
    tight at x + lambda* t; each whose completed cone is a MESC is a
    neighbour with vertex x + lambda* t. table is the walk's
    ``_active_table(h, universe)`` and cache its memo of ``_mesc_dual``.

    The returned tuple, sorted by key, is empty only when the polytope is
    degenerate across that wall or unbounded along the edge.
    """
    if dropped not in node.gens:
        raise ValueError("dropped index is not a generator of the node")
    d, x = _scaled(node.vertex)
    _, t = _scaled(t)
    num, den, entering = 0, 0, []  # least ratio num / den so far, rows attaining it
    for j, f, b in table.rows:
        s = -sum(map(mul, f, t))
        if s > 0:
            r = sum(map(mul, f, x)) - b * d
            c = r * den - num * s if den else -1  # sign of r / s - num / den
            if c < 0:
                num, den, entering = r, s, [j]
            elif c == 0:
                entering.append(j)
    if not den:
        return ()
    point = tuple(Fraction(den * a + num * c, den * d) for a, c in zip(x, t))
    shared = tuple(i for i in node.gens if i != dropped)
    found = []
    for j in sorted(j for j in entering if j is not None):  # keys come out sorted
        key = tuple(sorted(shared + (j,)))
        if _mesc_dual(key, table, cache) is not None:
            found.append(MescNode(key, point))
    return tuple(found)


def _generic_direction(n: int, rng: random.Random) -> tuple:
    nums = rng.sample(range(1, 9973), n)
    den = rng.randint(7, 97)
    return tuple(rat(a) / den for a in nums)


def _find_seed(h: HPolytope, table: _Table, direction, cache: dict):
    """A MESC containing the direction inside the normal cone of the vertex
    minimizing it, or None when the universe rows tight there span no such
    MESC."""
    _, vtx = lp_min(h, direction)
    d, x = _scaled(vtx.point)
    _, w = _scaled(direction)
    tight = sorted(j for j, f, b in table.rows if j is not None and sum(map(mul, f, x)) == b * d)
    for key in itertools.combinations(tight, h.dim - 1):
        dual = _mesc_dual(key, table, cache)
        if dual is not None and all(sum(map(mul, t, w)) >= 0 for t in dual[:-1]):
            return MescNode(key, vtx.point)
    return None


def walk(h: HPolytope, universe: SupportUniverse) -> MescGraph:
    """Full adjacency walk: seed a MESC, then breadth-first cross every wall
    of every discovered node. Deterministic given (h, universe): the
    k-th generic direction tried for the seed comes from random.Random(k).

    Raises SeedSearchError when no starting MESC is found (after
    SEED_ATTEMPTS generic directions), ValueError when h and the universe
    break the hypotheses of ``_active_table``, and propagates
    EmptyPolytopeError when h has no vertices at all.
    """
    n = h.dim
    table = _active_table(h, universe)
    cache: dict = {}  # key -> integer dual basis of a MESC, or None
    start = None
    for attempt in range(SEED_ATTEMPTS):
        direction = _generic_direction(n, random.Random(attempt))
        start = _find_seed(h, table, direction, cache)
        if start is not None:
            break
    if start is None:
        raise SeedSearchError(f"no seed MESC found in {SEED_ATTEMPTS} attempts")
    nodes = {start.gens: start}
    edges = set()
    incomplete = []
    queue = deque([start])
    while queue:
        node = queue.popleft()
        key = node.gens
        for i, t in zip(key, cache[key]):
            cands = neighbor_candidates(node, i, t, table, cache)
            if not cands:
                incomplete.append((key, i))
                continue
            for cand in cands:
                if cand.gens not in nodes:
                    nodes[cand.gens] = cand
                    queue.append(cand)
                edges.add(frozenset({key, cand.gens}))
    ordered = tuple(nodes[k] for k in sorted(nodes))
    return MescGraph(ordered, frozenset(edges), tuple(incomplete))


class FanReport(NamedTuple):
    """Structural summary of a MESC graph."""

    n_nodes: int
    n_edges: int
    n_vertices: int
    degree_histogram: tuple  # sorted (degree, count) pairs
    connected: bool
    regular: bool
    ok: bool


def verify_graph(g: MescGraph) -> FanReport:
    """Degree histogram, connectivity, and regularity of the walk result,
    on adjacency lists of node positions.

    ok means: connected, no incomplete walls, and all degrees equal.
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
        n_vertices=len(g.vertices),
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
