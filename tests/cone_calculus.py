"""The cone calculus the acceptance suite checks the paper's claims with,
on the engine's own primitives. Every cone tested for membership or
adjacency here is simplicial modulo the constant-one lineality, so
``dual_basis`` gives a vector's unique coordinates and ``absorbed`` reads
membership off their signs: no LP. Those coordinates are the conic
witness. ``dual_basis`` is exact, in Fractions: the reference the walk's
integer dual rows are checked against. Normal-cone membership is its
definition: f is in N(x) iff x attains E(f). ``chain_cone``,
``adjacent_swaps`` and ``reference_chain_vertex`` give the chain fan of a
lower probability from its definition, in Fractions on frozenset prefixes:
the reference the chain engine's graph is checked against.
``reference_pri_neighbors`` and ``reference_enumerate_extreme_pri`` are the
interval exchange walk on ``PriCone``s in Fractions, seeded by
``seed_cone`` and with each remainder summed from the bounds
(``remainder``, ``vertex_for_cone``): the reference the integer walk and
the split rule of ``credalfans.pri`` are checked against. ``reference_is_coherent_pri`` is the interval coherence test and
repair in Fractions, the reference for the integer one.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from credalfans.credal import natural_extension
from credalfans.exactla import ZERO, dot, indicator, ones, scaled_inverse, vec
from credalfans.fanwalk import MescGraph, MescNode
from credalfans.pri import PRIModel, PriCoherenceReport, pri_hrep


class Cone(NamedTuple):
    """cone(generators) + span(constant-one)."""

    generators: tuple


class Witness(NamedTuple):
    """Conic membership certificate: v == sum coeffs_i generators_i +
    lineality_coeffs[0] (constant-one), with coeffs >= 0 when v is in the
    cone."""

    coeffs: tuple
    lineality_coeffs: tuple


def dual_basis(generators, n: int):
    """Rows t_i with t_i . b_j == [i == j] over the basis b = generators +
    (constant-one), or None when b is not a basis. Each b_j is scaled by
    the lcm c_j of its denominators to an integer column; if R is
    ``scaled_inverse`` of those columns, with R . (c_j b_j) == d [i == j],
    then t_i = c_i R_i / d. The coordinates of v in b are t_i . v, so a
    generator's row is the normal of the wall opposite it."""
    basis = [vec(g) for g in generators] + [ones(n)]
    if len(basis) != n:
        return None
    scales = [math.lcm(*(a.denominator for a in b)) for b in basis]
    cols = [[int(a * c) for a in b] for b, c in zip(basis, scales)]
    rows = scaled_inverse(list(zip(*cols)))
    if rows is None:
        return None
    d = dot(rows[0], cols[0])
    return tuple(tuple(Fraction(a * c, d) for a in r) for r, c in zip(rows, scales))


def absorbed(dual, vectors):
    """The first of vectors in cone(generators) + span(constant-one), given
    the generators' dual basis, else None: v is in it iff its coordinates
    t_i . v on the generators' rows are all nonnegative."""
    gen_rows = dual[:-1]
    return next((v for v in vectors if all(dot(t, v) >= 0 for t in gen_rows)), None)


def active_set(h, x) -> frozenset:
    """Indices of the constraints of h tight at the feasible point x:
    inequality i has index i, equality j index len(inequalities) + j."""
    m = len(h.inequalities)
    return frozenset([i for i, (f, b) in enumerate(h.inequalities) if dot(vec(x), f) == b]
                     + list(range(m, m + len(h.equalities))))


def witness(dual, v) -> Witness:
    """The coordinates t . v of v over a dual basis's rows, the
    constant-one row last; unique, since the cone is simplicial."""
    *gen_rows, shift = dual
    return Witness(tuple(dot(t, v) for t in gen_rows), (dot(shift, v),))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def contains(cone: Cone, v) -> bool:
    """Closed membership of v in a simplicial cone."""
    return absorbed(dual_basis(cone.generators, len(v)), [vec(v)]) is not None


def are_adjacent(a: Cone, b: Cone) -> bool:
    """Sign test for two simplicial cones sharing all generators but one
    (ValueError otherwise). The row t of a's dual basis that belongs to f,
    the generator b lacks, is the normal of the common wall, so the cones
    lie on opposite sides iff t . g < 0 for b's new generator g."""
    (f,) = set(a.generators) - set(b.generators)
    (g,) = set(b.generators) - set(a.generators)
    dual = dual_basis(a.generators, len(f))
    return dot(dual[a.generators.index(f)], g) < 0


def chain_cone(order) -> Cone:
    """The cone of an outcome order: the indicators of its proper initial
    segments, sorted."""
    n = len(order)
    return Cone(tuple(sorted(indicator(n, order[:k]) for k in range(1, n))))


def adjacent_swaps(order) -> tuple:
    """The n-1 orders that swap one pair of consecutive outcomes of order:
    the orders whose chain cones share a wall with its cone."""
    return tuple(order[:i] + (order[i + 1], order[i]) + order[i + 2:]
                 for i in range(len(order) - 1))


def reference_chain_vertex(lowprob, order):
    """Telescoping on frozenset prefixes: the outcome at step k of the order
    gets L(A_k) - L(A_{k-1}). The reference for the step table's vertices."""
    p = [None] * lowprob.space.n
    prefix, prev = frozenset(), ZERO
    for x in order:
        prefix = prefix | {x}
        val = lowprob.value(prefix)
        p[x] = val - prev
        prev = val
    return tuple(p)


@dataclass(frozen=True)
class PriCone:
    """Combinatorial cone datum of an interval model: distinguished outcome
    x, lower-active side A (gamble above its x-value), upper-active side B
    (below)."""

    x: int
    a: frozenset
    b: frozenset

    def __post_init__(self):
        a = frozenset(self.a)
        b = frozenset(self.b)
        if self.x in a or self.x in b or (a & b):
            raise ValueError("sides must be disjoint and exclude x")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def is_full(self, n: int) -> bool:
        return len(self.a) + len(self.b) == n - 1


def reference_is_coherent_pri(m) -> PriCoherenceReport:
    """Coherence of an interval model in Fractions: properness is
    sum l <= 1 <= sum u, and each bound is tightened against the mass the
    other outcomes must or may take; coherent when no bound moves."""
    sl = sum(m.lower, ZERO)
    su = sum(m.upper, ZERO)
    if not sl <= 1 <= su:
        return PriCoherenceReport(False, False, None)
    lo = tuple(max(m.lower[x], 1 - (su - m.upper[x])) for x in range(m.n))
    up = tuple(min(m.upper[x], 1 - (sl - m.lower[x])) for x in range(m.n))
    coherent = lo == m.lower and up == m.upper
    return PriCoherenceReport(True, coherent, PRIModel(m.space, lo, up))


def remainder(m, c: PriCone):
    """R = 1 - sum_A l - sum_B u, summed from the bounds."""
    return 1 - sum((m.lower[y] for y in c.a), ZERO) - sum((m.upper[z] for z in c.b), ZERO)


def vertex_for_cone(m, c: PriCone):
    """The candidate extreme point of a full cone: lower bounds on A, upper
    bounds on B, remainder on x. None when the remainder leaves x's own
    interval, i.e. the cone is not in the model's fan."""
    n = m.n
    if not c.is_full(n):
        raise ValueError("vertex requires a full cone")
    r = remainder(m, c)
    if not (m.lower[c.x] <= r <= m.upper[c.x]):
        return None
    p = [ZERO] * n
    for y in c.a:
        p[y] = m.lower[y]
    for z in c.b:
        p[z] = m.upper[z]
    p[c.x] = r
    return tuple(p)


def seed_cone(m):
    """A valid cone for the staircase gamble (0, 1, ..., n-1): scan the
    interior split positions x; coherence guarantees one works."""
    n = m.n
    for x in range(1, n - 1):
        c = PriCone(x, frozenset(range(x + 1, n)), frozenset(range(x)))
        if vertex_for_cone(m, c) is not None:
            return c
    return None


def locate_cone(f) -> tuple:
    """The interval-model cones (x, A, B) whose relative interior holds f:
    one per outcome x tied with no other, with A (f above f(x)) and B
    (below) both nonempty; n - 2 of them when f's values are distinct."""
    fv = vec(f)
    n = len(fv)
    out = []
    for x in range(n):
        a = frozenset(y for y in range(n) if fv[y] > fv[x])
        b = frozenset(z for z in range(n) if fv[z] < fv[x])
        if a and b and len(a) + len(b) == n - 1:
            out.append(PriCone(x, a, b))
    return tuple(sorted(out, key=lambda c: (c.x, sorted(c.a), sorted(c.b))))


def reference_pri_neighbors(m, c: PriCone) -> tuple:
    """The cones across the walls of a full cone (x, A, B) with both sides
    nonempty, by the exchange rules on the remainder R: the wall of y in A
    leads to (x, A - y, B + y) when R + l(y) - u(y) >= l(x) and to
    (y, A - y + x, B) when it is <= l(x); B walls mirror this against u(x)."""
    n = m.n
    if not c.is_full(n) or not c.a or not c.b:
        raise ValueError("neighbour rules apply to full cones with both sides nonempty")
    r = remainder(m, c)
    lx, ux = m.lower[c.x], m.upper[c.x]
    out = []
    for y in sorted(c.a):
        t = r + m.lower[y] - m.upper[y]
        if len(c.a) > 1 and t >= lx:
            out.append(PriCone(c.x, c.a - {y}, c.b | {y}))
        if t <= lx:
            out.append(PriCone(y, (c.a - {y}) | {c.x}, c.b))
    for z in sorted(c.b):
        t = r + m.upper[z] - m.lower[z]
        if len(c.b) > 1 and t <= ux:
            out.append(PriCone(c.x, c.a | {z}, c.b - {z}))
        if t >= ux:
            out.append(PriCone(z, c.a, (c.b - {z}) | {c.x}))
    return tuple(out)


def reference_enumerate_extreme_pri(m):
    """(points, MescGraph) of a coherent interval model on n >= 3 outcomes
    by walking reference_pri_neighbors from seed_cone, each vertex from
    vertex_for_cone; nodes keyed by pri_hrep(m)'s universe
    indices, as the engine keys them, and points the distinct vertices in
    node order."""
    n = m.n
    h, universe = pri_hrep(m)
    uindex = {v: i for i, v in enumerate(universe.vectors)}
    row = [uindex[f] for f, _ in h.inequalities]

    def gens(c):
        return tuple(sorted([row[y] for y in c.a] + [row[n + z] for z in c.b]))

    start = seed_cone(m)
    key = gens(start)
    cones = {key: start}
    nodes = {key: MescNode(key, vertex_for_cone(m, start))}
    edges = set()
    queue = [key]
    while queue:
        key = queue.pop()
        for nb in reference_pri_neighbors(m, cones[key]):
            nk = gens(nb)
            if nk not in nodes:
                v = vertex_for_cone(m, nb)
                assert v is not None, "neighbour rule left the fan"
                cones[nk] = nb
                nodes[nk] = MescNode(nk, v)
                queue.append(nk)
            edges.add(frozenset({key, nk}))
    ordered = tuple(nodes[k] for k in sorted(nodes))
    return tuple(dict.fromkeys(node.vertex for node in ordered)), MescGraph(ordered, frozenset(edges))


def is_comonotone(f, g) -> bool:
    """No two outcomes on which f and g move strictly opposite ways."""
    return all((f[i] - f[j]) * (g[i] - g[j]) >= 0
               for i, j in itertools.combinations(range(len(f)), 2))


def normal_cone_at(h, x) -> Cone:
    """The directions minimised at the vertex x of h, modulo its equality
    (the constant one): the active inequality normals generate."""
    m = len(h.inequalities)
    return Cone(tuple(sorted({h.inequalities[i][0] for i in active_set(h, x) if i < m})))


def cone_additivity_check(lp, vertex_point, g, h):
    """None (skip) unless g and h both lie in the normal cone at the
    extreme point, else whether E(g + h) == E(g) + E(h) exactly."""
    x = vec(vertex_point)
    if any(dot(x, vec(f)) != natural_extension(lp, f) for f in (g, h)):
        return None
    return natural_extension(lp, vadd(g, h)) == natural_extension(lp, g) + natural_extension(lp, h)


class EventCollection(tuple):
    """A family of events, each a set of outcome indices."""

    @classmethod
    def from_labels(cls, space, groups):
        return cls(frozenset(space.index(x) for x in g) for g in groups)


class EventMescReport(NamedTuple):
    ok: bool
    reason: str = None  # None, 'no-basis' or 'absorbs'
    events: tuple = ()
    witness: object = None


def is_event_mesc(col, space) -> EventMescReport:
    """Does the family, which must hold the sure event, span a MESC over all
    event indicators? Else 'no-basis', or 'absorbs' with the first other
    event whose indicator is in the cone and the witness of that."""
    n = space.n
    omega = frozenset(range(n))
    events = {frozenset(e) for e in col}
    if omega not in events:
        raise ValueError("the family must contain the sure event")
    members = sorted(events - {omega}, key=lambda e: (len(e), sorted(e)))
    dual = dual_basis([indicator(n, e) for e in members], n)
    if dual is None:
        return EventMescReport(False, "no-basis", tuple(members))
    others = [frozenset(s) for r in range(1, n) for s in itertools.combinations(range(n), r)]
    others = {indicator(n, e): e for e in others if e not in events}
    found = absorbed(dual, others)
    if found is None:
        return EventMescReport(True)
    return EventMescReport(False, "absorbs", (others[found],), witness(dual, found))
