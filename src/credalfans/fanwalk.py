"""Adjacency walk over maximal elementary simplicial cones of a normal fan.

Instead of enumerating all vertices of a credal polytope blindly, the walk
seeds one MESC inside the normal cone of an easily found vertex, then
repeatedly crosses cone walls: dropping one generator of a MESC opens a
facet, and the rows entering the edge beyond it that complete the facet to
another MESC are its neighbours. The walk yields the vertex set and the
cone adjacency graph together.

Nodes are keyed by sorted universe indices. Each node's dual basis
(``cones.dual_basis``) is computed once. The row t of a generator is both
the wall normal and the direction of the edge leaving the node's vertex x
across that wall, so a wall is crossed by one minimum-ratio test (Avis and
Fukuda's pivot): the neighbour's vertex is x + lambda* t, and the MESC test
is dot products. Only the seed comes from an LP: one exact simplex
(``polytope.lp_min``) per generic direction tried, whose optimal basis gives
the seed vertex and its active rows. No vertex set is enumerated, but the
walk inherits ``lp_min``'s oracle guards on dimension and row count.

The walk is deterministic for a fixed model. Node count is bounded
by the number of feasible MESCs over the universe; for models whose normal
cones are themselves simplicial this is exactly one node per vertex.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

from .cones import SupportUniverse, absorbed, dual_basis
from .exactla import dot, format_rat, is_multiple, ones, rat
from .polytope import HPolytope, lp_min

__all__ = [
    "MescNode",
    "MescGraph",
    "FanReport",
    "SeedSearchError",
    "neighbor_candidates",
    "walk",
    "verify_graph",
    "graph_to_dot",
    "graph_to_json",
]

# Generic directions tried for the seed before the walk gives up.
SEED_ATTEMPTS = 32


class SeedSearchError(RuntimeError):
    """No starting MESC found after SEED_ATTEMPTS generic directions."""


@dataclass(frozen=True)
class MescNode:
    """A MESC plus the vertex it certifies. gens is the sorted tuple of the
    generators' indices in the engine's SupportUniverse; the universe is
    stored sorted, so index order is generator order."""

    gens: tuple
    vertex: tuple


@dataclass(frozen=True)
class MescGraph:
    """Walk result: nodes in canonical order, undirected edges as frozensets
    of node keys (gens). incomplete_walls records (gens, dropped index)
    walls where no neighbour was found, which can only happen on degenerate
    input."""

    nodes: tuple
    edges: frozenset
    incomplete_walls: tuple = ()

    @property
    def vertices(self) -> frozenset:
        return frozenset(n.vertex for n in self.nodes)


def _active_table(h: HPolytope, universe: SupportUniverse) -> dict:
    """Universe index -> tightest bound of that inequality normal in h, over
    the non-constant universe vectors.

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
    table = {i: bounds.get(v) for i, v in enumerate(universe.vectors) if not is_multiple(v, one)}
    if None in table.values():
        raise ValueError("universe vector is not an inequality normal of the polytope")
    return table


def _mesc_dual(key, universe: SupportUniverse, table: dict, cache: dict):
    """The dual basis of the cone on these universe indices when it is a
    MESC over the universe, else None; memoized in cache."""
    if key not in cache:
        vectors = universe.vectors
        dual = dual_basis([vectors[i] for i in key], universe.dim)
        mesc = dual is not None and not absorbed(dual, (vectors[j] for j in table if j not in key))
        cache[key] = dual if mesc else None
    return cache[key]


def neighbor_candidates(node: MescNode, dropped, t, h: HPolytope, universe: SupportUniverse,
                        table: dict, cache: dict):
    """MESC neighbours of node across the wall opened by dropping universe
    index ``dropped``; t is the node's dual-basis row of that generator.

    t is orthogonal to the other generators and to the constant, and
    t . f_dropped = 1, so the edge leaving the node's vertex x across the
    wall is x + lambda t, lambda >= 0. It stops at the least ratio
    lambda* = (x . f - b) / (-t . f) over the rows of h with t . f < 0. The
    candidates are the universe rows entering there (t . f < 0, tight at
    x + lambda* t); each whose completed cone is a MESC is a neighbour
    with vertex x + lambda* t. table is the walk's ``_active_table(h,
    universe)`` and cache its memo of ``_mesc_dual``.

    The returned tuple, sorted by key, is empty only when h is degenerate
    across that wall or unbounded along the edge.
    """
    if dropped not in node.gens:
        raise ValueError("dropped index is not a generator of the node")
    x = node.vertex
    steps = [(dot(x, f) - b) / -s for f, b in h.inequalities if (s := dot(f, t)) < 0]
    if not steps:
        return ()
    lam = min(steps)
    point = tuple(a + lam * c for a, c in zip(x, t))
    vectors = universe.vectors
    shared = tuple(i for i in node.gens if i != dropped)
    found = []
    for j, bound in table.items():  # ascending j, so keys come out sorted
        if dot(vectors[j], t) < 0 and dot(vectors[j], point) == bound:
            key = tuple(sorted(shared + (j,)))
            if _mesc_dual(key, universe, table, cache) is not None:
                found.append(MescNode(key, point))
    return tuple(found)


def _generic_direction(n: int, rng: random.Random) -> tuple:
    nums = rng.sample(range(1, 9973), n)
    den = rng.randint(7, 97)
    return tuple(rat(a) / den for a in nums)


def _find_seed(h: HPolytope, universe: SupportUniverse, table: dict, direction, cache: dict):
    """A MESC containing the direction inside the normal cone of the vertex
    minimizing it, or None when the active set spans no such MESC."""
    _, vtx = lp_min(h, direction)
    index = {v: i for i, v in enumerate(universe.vectors)}
    m = len(h.inequalities)
    active = sorted({index.get(h.inequalities[i][0]) for i in vtx.active if i < m} & table.keys())
    for key in itertools.combinations(active, h.dim - 1):
        dual = _mesc_dual(key, universe, table, cache)
        if dual is not None and absorbed(dual, [direction]):
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
    cache: dict = {}  # key -> dual basis of a MESC, or None
    start = None
    for attempt in range(SEED_ATTEMPTS):
        direction = _generic_direction(n, random.Random(attempt))
        start = _find_seed(h, universe, table, direction, cache)
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
            cands = neighbor_candidates(node, i, t, h, universe, table, cache)
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


@dataclass(frozen=True)
class FanReport:
    """Structural summary of a MESC graph."""

    n_nodes: int
    n_edges: int
    n_vertices: int
    degree_histogram: tuple  # sorted (degree, count) pairs
    connected: bool
    regular: bool
    ok: bool


def verify_graph(g: MescGraph) -> FanReport:
    """Degree histogram, connectivity, and regularity of the walk result.

    ok means: connected, no incomplete walls, and all degrees equal.
    """
    deg = {node.gens: 0 for node in g.nodes}
    adj = {node.gens: [] for node in g.nodes}
    for e in g.edges:
        a, b = tuple(e)
        deg[a] += 1
        deg[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    hist: dict = {}
    for d in deg.values():
        hist[d] = hist.get(d, 0) + 1
    if g.nodes:
        seen = set()
        stack = [g.nodes[0].gens]
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            stack.extend(adj[k])
        connected = len(seen) == len(g.nodes)
    else:
        connected = True
    regular = len(hist) <= 1
    ok = connected and regular and not g.incomplete_walls
    return FanReport(
        n_nodes=len(g.nodes),
        n_edges=len(g.edges),
        n_vertices=len(g.vertices),
        degree_histogram=tuple(sorted(hist.items())),
        connected=connected,
        regular=regular,
        ok=ok,
    )


def _vertex_label(vertex) -> str:
    return ",".join(format_rat(a) for a in vertex)


def graph_to_dot(g: MescGraph) -> str:
    """Undirected DOT rendering; node labels are the certified vertices."""
    index = {node.gens: i for i, node in enumerate(g.nodes)}
    lines = ["graph fan {"]
    for i, node in enumerate(g.nodes):
        lines.append(f'  n{i} [label="{_vertex_label(node.vertex)}"];')
    for a, b in sorted(
        tuple(sorted((index[x] for x in e))) for e in g.edges
    ):
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: MescGraph, universe: SupportUniverse) -> dict:
    """JSON-ready dict; generators are referenced by universe index."""
    index = {node.gens: i for i, node in enumerate(g.nodes)}
    size = len(universe)
    nodes = []
    for i, node in enumerate(g.nodes):
        if not all(0 <= k < size for k in node.gens):
            raise ValueError("graph generator index outside the universe")
        nodes.append(
            {
                "id": i,
                "vertex": [format_rat(a) for a in node.vertex],
                "generators": list(node.gens),
            }
        )
    edges = sorted(tuple(sorted((index[x] for x in e))) for e in g.edges)
    return {
        "universe": [[format_rat(a) for a in v] for v in universe.vectors],
        "nodes": nodes,
        "edges": [list(e) for e in edges],
    }
