"""Adjacency walk over maximal elementary simplicial cones of a normal fan.

Instead of enumerating all vertices of a credal polytope blindly, the walk
seeds one MESC inside the normal cone of an easily found vertex, then
repeatedly crosses cone walls: dropping one generator of a MESC opens a
facet, and the universe vectors on the far side that complete the facet to
another feasible MESC are its neighbours. Every neighbour certifies an
extreme point by solving the active-constraint system, so the walk yields
the vertex set and the cone adjacency graph together.

The walk is deterministic for a fixed model and seed. Node count is bounded
by the number of feasible MESCs over the universe; for models whose normal
cones are themselves simplicial this is exactly one node per vertex.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .cones import (
    AdjacencyPreconditionError,
    Cone,
    SupportUniverse,
    are_adjacent,
    is_mesc,
    mesc_failure,
)
from .exactla import in_nonneg_span, is_multiple, ones, rat, solve_unique, vec
from .polytope import HPolytope, lp_min

__all__ = [
    "MescNode",
    "MescGraph",
    "FanReport",
    "SingularSystemError",
    "SeedSearchError",
    "extreme_point_of",
    "neighbor_candidates",
    "walk",
    "verify_graph",
    "graph_to_dot",
    "graph_to_json",
]


class SingularSystemError(ValueError):
    """The active-constraint system of the cone has no unique solution."""


class SeedSearchError(RuntimeError):
    """No starting MESC found after the configured number of attempts."""


@dataclass(frozen=True)
class MescNode:
    """A MESC plus the vertex it certifies. In a graph, gens is the sorted
    tuple of the generators' indices in the engine's SupportUniverse; the
    universe is stored sorted, so index order is generator order.
    neighbor_candidates, which works on cones, gives the generator vectors
    themselves, and walk maps them to indices."""

    gens: tuple
    vertex: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(sorted(self.gens)))


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


def _bounds_map(h: HPolytope) -> dict:
    """Tightest bound per inequality normal (duplicate normals collapse to
    the binding row)."""
    bounds: dict = {}
    for f, b in h.inequalities:
        if f not in bounds or b > bounds[f]:
            bounds[f] = b
    return bounds


def extreme_point_of(c: Cone, h: HPolytope) -> tuple:
    """Solve the cone's active system: x . g == bound(g) for every generator
    plus every equality of h. The solution is the unique candidate vertex
    certified by the cone; feasibility is the caller's concern.

    Raises SingularSystemError when the system has no unique solution, and
    ValueError when a generator is not a constraint normal of h.
    """
    bounds = _bounds_map(h)
    rows = [f for f, _ in h.equalities]
    rhs = [b for _, b in h.equalities]
    for g in c.generators:
        if g not in bounds:
            raise ValueError("cone generator is not an inequality normal of the polytope")
        rows.append(g)
        rhs.append(bounds[g])
    x = solve_unique(rows, rhs)
    if x is None:
        raise SingularSystemError("active system of the cone is singular")
    return x


def neighbor_candidates(c: Cone, dropped, h: HPolytope, universe: SupportUniverse, cache=None):
    """MESC neighbours of c across the wall opened by removing ``dropped``.

    A universe vector f2 yields a neighbour when the completed cone lies on
    the opposite side of the wall (sign test), certifies a feasible point of
    h, and is itself a MESC. All surviving candidates certify the same
    vertex on non-degenerate input; the returned tuple keeps every candidate
    achieving the lexicographically smallest certified vertex.

    The returned tuple is empty only when h is degenerate across that wall.
    """
    dropped = vec(dropped)
    if dropped not in c.generators:
        raise ValueError("dropped vector is not a generator of the cone")
    n = c.dim_ambient
    one = ones(n)
    shared = tuple(g for g in c.generators if g != dropped)
    if cache is None:
        cache = {}
    found = []
    for f2 in universe:
        if f2 in c.generators or is_multiple(f2, one):
            continue
        cand = Cone(shared + (f2,), c.lineality)
        if len(cand.generators) != len(c.generators):
            continue
        try:
            if not are_adjacent(c, cand):
                continue
        except AdjacencyPreconditionError:
            continue
        try:
            point = extreme_point_of(cand, h)
        except SingularSystemError:
            continue
        if not h.is_feasible(point):
            continue
        if cand.generators not in cache:
            cache[cand.generators] = is_mesc(cand, universe)
        if not cache[cand.generators]:
            continue
        found.append(MescNode(cand.generators, point))
    if not found:
        return ()
    best = min(node.vertex for node in found)
    return tuple(sorted((n for n in found if n.vertex == best), key=lambda n: n.gens))


def _generic_direction(n: int, rng: random.Random) -> tuple:
    nums = rng.sample(range(1, 9973), n)
    den = rng.randint(7, 97)
    return tuple(rat(a) / den for a in nums)


def _find_seed(h: HPolytope, universe: SupportUniverse, direction):
    """A MESC containing the direction inside the normal cone of the vertex
    minimizing it, or None when the active set spans no such MESC."""
    import itertools

    n = h.dim
    one = ones(n)
    _, vtx = lp_min(h, direction)
    m = len(h.inequalities)
    active_normals = sorted(
        {
            h.inequalities[i][0]
            for i in vtx.active
            if i < m
            and h.inequalities[i][0] in universe
            and not is_multiple(h.inequalities[i][0], one)
        }
    )
    for combo in itertools.combinations(active_normals, n - 1):
        if in_nonneg_span(combo, [one], direction) is None:
            continue
        cand = Cone(combo, (one,))
        if mesc_failure(cand, universe) is None:
            return MescNode(cand.generators, vtx.point)
    return None


def walk(h: HPolytope, universe: SupportUniverse, *, seed: int = 0, max_attempts: int = 32) -> MescGraph:
    """Full adjacency walk: seed a MESC, then breadth-first cross every wall
    of every discovered node. Deterministic given (h, universe, seed).

    Raises SeedSearchError when no starting MESC is found (after
    max_attempts generic directions) and propagates EmptyPolytopeError when
    h has no vertices at all.
    """
    n = h.dim
    one = ones(n)
    start = None
    for attempt in range(max_attempts):
        rng = random.Random(seed * 1000003 + attempt)
        direction = _generic_direction(n, rng)
        start = _find_seed(h, universe, direction)
        if start is not None:
            break
    if start is None:
        raise SeedSearchError(f"no seed MESC found in {max_attempts} attempts")
    uindex = {v: i for i, v in enumerate(universe.vectors)}
    mesc_cache = {start.gens: True}
    key = tuple(uindex[g] for g in start.gens)
    nodes = {key: MescNode(key, start.vertex)}
    edges = set()
    incomplete = []
    queue = deque([key])
    while queue:
        key = queue.popleft()
        cone = Cone(tuple(universe.vectors[i] for i in key), (one,))
        for i, dropped in zip(key, cone.generators):
            cands = neighbor_candidates(cone, dropped, h, universe, cache=mesc_cache)
            if not cands:
                incomplete.append((key, i))
                continue
            for cand in cands:
                nk = tuple(uindex[g] for g in cand.gens)
                if nk not in nodes:
                    nodes[nk] = MescNode(nk, cand.vertex)
                    queue.append(nk)
                edges.add(frozenset({key, nk}))
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


def verify_graph(g: MescGraph, expected_degree=None) -> FanReport:
    """Degree histogram, connectivity, and regularity of the walk result.

    ok means: connected, no incomplete walls, and every node has the
    expected degree (or all degrees equal when none is specified).
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
    if expected_degree is None:
        regular = len(hist) <= 1
    else:
        regular = set(hist) == {expected_degree} or (not hist and expected_degree == 0)
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
    from ._ratbackend import format_rat

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
    from ._ratbackend import format_rat

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
