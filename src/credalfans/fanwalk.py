"""Adjacency walk over maximal elementary simplicial cones of a normal fan.

Instead of enumerating all vertices of a credal polytope blindly, the walk
seeds one MESC inside the normal cone of an easily found vertex, then
repeatedly crosses cone walls: dropping one generator of a MESC opens a
facet, and the rows entering the edge beyond it that complete the facet to
another MESC are its neighbours. The walk yields the vertex set and the
cone adjacency graph together.

Nodes are keyed by sorted universe indices. Each queued node keeps one
integer table (``_Tableau``) on the polytope's rows, scaled to integers
once per walk. A wall is crossed as in Avis and Fukuda's pivot: a ratio
test on two table rows gives the entering rows, and each new key costs one
fraction-free pivot (``exactla._pivot``, as in lrs) on a copy of the table,
then a sign scan as its MESC test; its vertex is the only Fraction built.
Only the seed comes from an LP (``polytope.lp_min``, one per generic
direction tried), and its table from ``exactla.scaled_inverse``. No vertex
set is enumerated, but the walk inherits ``lp_min``'s oracle guards on
dimension and row count.

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
from .exactla import _pivot, _scaled, format_rat, ones, rat, scaled_inverse
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
    (``_active_table``), then the n unit vectors with bound 0. Rows are the
    columns' coordinates on each generator, in key order, then their slack
    f . x - b at the node's vertex x: so a generator's row ends in det
    times its dual row t, and the slack row in det x. The constant's row,
    which no step reads, is not kept."""

    node: MescNode
    det: int
    rows: list


def _active_table(h: HPolytope, universe: SupportUniverse) -> tuple:
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
    return tuple((j, row[:-1], row[-1]) for j, row in scaled)


def _is_mesc(key, rows, table) -> bool:
    """Whether the cone on key absorbs no other universe row: each such
    column of its table has a negative coordinate on some generator."""
    return all(min(col) < 0 for col, (j, _, _) in zip(zip(*rows[:len(key)]), table)
               if j is not None and j not in key)


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


def _crossed(tab: _Tableau, c: int, k: int, key, table):
    """key's tableau, by one pivot on a copy of tab's table that brings
    column k into the basis in place of the generator in row c; None when
    key's cone is not a MESC. The vertex is read off the new slack row."""
    rows = list(tab.rows)
    det = _pivot(rows, tab.det, c, k)
    rows.insert(key.index(table[k][0]), rows.pop(c))
    if not _is_mesc(key, rows, table):
        return None
    return _Tableau(MescNode(key, tuple(Fraction(a, det) for a in rows[-1][len(table):])),
                    det, rows)


def _find_seed(h: HPolytope, table, direction):
    """The tableau of a MESC containing the direction inside the normal
    cone of the vertex minimizing it, else None. A candidate's table comes
    from the ``scaled_inverse`` R of its basis matrix B, R . B = det I, and
    det = sum(R[-1]), as B's last column is the constant one."""
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
        rows = [[*(sum(map(mul, t, f)) for _, f, _ in table), *t] for t in inverse[:-1]]
        rows.append([*(sum(map(mul, f, dx)) - b * det for _, f, b in table), *dx])
        key = tuple(j for j, _ in gens)
        if _is_mesc(key, rows, table):
            return _Tableau(MescNode(key, vtx.point), det, rows)
    return None


def walk(h: HPolytope, universe: SupportUniverse) -> MescGraph:
    """Full adjacency walk: seed a MESC, then breadth-first cross every wall
    of every discovered node, in sorted-generator order. Deterministic given
    (h, universe): the k-th generic direction tried for the seed comes from
    random.Random(k).

    One pivot per new node: after the seed, the walk calls no
    ``scaled_inverse``, and ``_pivot`` once per node but the seed plus once
    per candidate key that is not a MESC. So it is one pivot per node but
    the seed when no ratio test ties and every universe row's bound is
    attained: each wall then has one candidate, a MESC.

    Raises SeedSearchError when no starting MESC is found (after
    SEED_ATTEMPTS generic directions), ValueError when h and the universe
    break the hypotheses of ``_active_table``, and propagates
    EmptyPolytopeError when h has no vertices at all.
    """
    table = _active_table(h, universe)
    for attempt in range(SEED_ATTEMPTS):
        rng = random.Random(attempt)  # a generic direction
        nums, den = rng.sample(range(1, 9973), h.dim), rng.randint(7, 97)
        start = _find_seed(h, table, tuple(rat(a) / den for a in nums))
        if start is not None:
            break
    else:
        raise SeedSearchError(f"no seed MESC found in {SEED_ATTEMPTS} attempts")
    seen = {start.node.gens: start.node}  # key -> its node, None when it is no MESC
    edges, incomplete = set(), []
    queue = deque([start])
    while queue:
        tab = queue.popleft()
        key = tab.node.gens
        for c, i in enumerate(key):
            shared, found = key[:c] + key[c + 1:], False
            for j, k in neighbor_candidates(tab, i, table):
                other = tuple(sorted(shared + (j,)))
                if other not in seen:
                    new = _crossed(tab, c, k, other, table)
                    seen[other] = new.node if new else None
                    if new:
                        queue.append(new)
                if seen[other]:
                    found = True
                    edges.add(frozenset({key, other}))
            if not found:
                incomplete.append((key, i))
    ordered = tuple(seen[k] for k in sorted(seen) if seen[k])
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
