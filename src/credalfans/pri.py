"""Probability intervals: bounds on singleton masses and the combinatorial
fan they induce.

A probability-interval model gives l(x) <= p(x) <= u(x) per outcome. Its
credal set is a polytope whose extreme points have an explicit shape: pick
a distinguished outcome x and split the rest into a side A held at its
lower bounds and a side B held at its upper bounds; the remainder

    R = 1 - sum_A l - sum_B u

goes to x, and the point is extreme exactly when l(x) <= R <= u(x). The
normal cone of such a point is spanned by the singleton indicators over A
(lower rows) and the complement indicators over B (upper rows): A collects
outcomes where the gamble beats its value at x, B those it beats. Walking
these cones by exchange rules enumerates all extreme points without
touching a generic LP, in time proportional to the number of cones, which
ranges from n(n-1) up to a central binomial count.

All neighbour rules reduce to comparing the redistributed remainder against
the distinguished outcome's own bounds; the four cases (move y out of A,
swap x with y in A, and the two mirrored B moves) are exhaustive, and a tie
emits both sides, which then certify the same vertex from two cones.
Below three outcomes no cone has both sides nonempty; the generic walk
takes those models, and its seed is the only LP this module runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .chains2mono import LowerProbability
from .cones import SupportUniverse
from .credal import (
    Gamble,
    IncoherenceError,
    LowerPrevision,
    OutcomeSpace,
    SchemaError,
    _schema_outcomes,
    parse_gamble,
)
from .exactla import ZERO, dot, ones, unit, vec
from .fanwalk import MescGraph, MescNode, walk
from .polytope import HPolytope

__all__ = [
    "PRIModel",
    "PriCoherenceReport",
    "PriCone",
    "is_coherent_pri",
    "vertex_for_cone",
    "pri_neighbors",
    "enumerate_extreme_pri",
    "natural_extension_pri",
    "induced_2mono",
    "count_bounds",
    "pri_hrep",
    "as_lower_prevision",
    "pri_from_json",
]


@dataclass(frozen=True)
class PRIModel:
    """Interval bounds on each singleton mass.

    Construction checks only the elementwise sanity 0 <= l <= u <= 1; the
    global conditions (proper: the bounds admit some distribution;
    reachable: every bound is attained) are the business of
    is_coherent_pri, so that improper models can still be built and
    diagnosed.
    """

    space: OutcomeSpace
    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = vec(self.lower)
        up = vec(self.upper)
        n = self.space.n
        if len(lo) != n or len(up) != n:
            raise ValueError("bound vectors must match the outcome space")
        for x in range(n):
            if not (0 <= lo[x] <= up[x] <= 1):
                raise ValueError(
                    f"need 0 <= l <= u <= 1 at outcome {self.space.names[x]}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def n(self) -> int:
        return self.space.n


@dataclass(frozen=True)
class PriCoherenceReport:
    """proper: some distribution satisfies all bounds. coherent: proper and
    every bound attained (reachable). repaired: the reachable shrink of the
    intervals, None when improper."""

    proper: bool
    coherent: bool
    repaired: object


def is_coherent_pri(m: PRIModel) -> PriCoherenceReport:
    """Properness is sum l <= 1 <= sum u; reachability tightens each bound
    against the mass the other outcomes must or may take. The repaired
    model is the canonical coherent one with the same credal set."""
    sl = sum(m.lower, ZERO)
    su = sum(m.upper, ZERO)
    proper = sl <= 1 <= su
    if not proper:
        return PriCoherenceReport(False, False, None)
    lo = tuple(max(m.lower[x], 1 - (su - m.upper[x])) for x in range(m.n))
    up = tuple(min(m.upper[x], 1 - (sl - m.lower[x])) for x in range(m.n))
    repaired = PRIModel(m.space, lo, up)
    coherent = lo == m.lower and up == m.upper
    return PriCoherenceReport(True, coherent, repaired)


@dataclass(frozen=True)
class PriCone:
    """Combinatorial cone datum: distinguished outcome x, lower-active side
    A (gamble above its x-value), upper-active side B (below)."""

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


def _remainder(m: PRIModel, c: PriCone):
    return 1 - sum((m.lower[y] for y in c.a), ZERO) - sum((m.upper[z] for z in c.b), ZERO)


def vertex_for_cone(m: PRIModel, c: PriCone):
    """The candidate extreme point of a full cone: lower bounds on A, upper
    bounds on B, remainder on x. None when the remainder leaves x's own
    interval, i.e. the cone is not in the model's fan."""
    n = m.n
    if not c.is_full(n):
        raise ValueError("vertex requires a full cone")
    r = _remainder(m, c)
    if not (m.lower[c.x] <= r <= m.upper[c.x]):
        return None
    p = [ZERO] * n
    for y in c.a:
        p[y] = m.lower[y]
    for z in c.b:
        p[z] = m.upper[z]
    p[c.x] = r
    return tuple(p)


def pri_neighbors(m: PRIModel, c: PriCone) -> tuple:
    """The cones across the walls of a full cone with both sides nonempty.

    Dropping the generator of y in A opens one wall; the far side either
    keeps x distinguished and moves y to B or makes y the new distinguished
    outcome, decided by comparing the redistributed remainder with l(x).
    B walls mirror this against u(x). A tie emits both, and a coherent
    model leaves no wall without a neighbour.
    """
    n = m.n
    if not c.is_full(n) or not c.a or not c.b:
        raise ValueError("neighbour rules apply to full cones with both sides nonempty")
    r = _remainder(m, c)
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


def _seed_cone(m: PRIModel):
    """A valid cone for the staircase gamble (0, 1, ..., n-1): scan the
    interior split positions; coherence guarantees one works."""
    n = m.n
    for k in range(1, n - 1):  # x at ascending position k, 0-indexed
        x = k
        a = frozenset(range(k + 1, n))
        b = frozenset(range(k))
        c = PriCone(x, a, b)
        r = _remainder(m, c)
        if m.lower[x] <= r <= m.upper[x]:
            return c
    return None


def enumerate_extreme_pri(m: PRIModel):
    """All extreme points of a coherent interval model, with the MESC
    adjacency graph, by walking the exchange rules from a seed cone. Graph
    nodes are keyed by generator indices in pri_hrep(m)'s universe.

    Raises IncoherenceError on incoherent input (repair it first via
    is_coherent_pri). For n <= 2 the graph is fanwalk.walk's on
    pri_hrep(m), seeded by one LP: one cone with no generators at n == 1,
    and at n == 2 the segment's two ends, each certified by one singleton
    row.
    """
    rep = is_coherent_pri(m)
    if not rep.coherent:
        raise IncoherenceError("extreme-point walk requires a coherent interval model")
    n = m.n
    if n <= 2:
        graph = walk(*pri_hrep(m))
        return graph.vertices, graph
    start = _seed_cone(m)
    if start is None:
        raise IncoherenceError("no valid seed cone; model is not reachable")
    # node keys are universe indices: row[y] of the lower row of y, row[n + z]
    # of the upper row of z
    h, universe = pri_hrep(m)
    uindex = {v: i for i, v in enumerate(universe.vectors)}
    row = [uindex[f] for f, _ in h.inequalities]

    def gens(c):
        return tuple(sorted([row[y] for y in c.a] + [row[n + z] for z in c.b]))

    key = gens(start)
    cones = {key: start}
    nodes = {key: MescNode(key, vertex_for_cone(m, start))}
    edges = set()
    queue = [key]
    while queue:
        key = queue.pop()
        for nb in pri_neighbors(m, cones[key]):
            nk = gens(nb)
            if nk not in nodes:
                v = vertex_for_cone(m, nb)
                if v is None:
                    raise IncoherenceError("neighbour rule left the fan; model is not reachable")
                cones[nk] = nb
                nodes[nk] = MescNode(nk, v)
                queue.append(nk)
            edges.add(frozenset({key, nk}))
    ordered = tuple(nodes[k] for k in sorted(nodes))
    return frozenset(node.vertex for node in ordered), MescGraph(ordered, frozenset(edges))


def natural_extension_pri(m: PRIModel, f):
    """Exact lower expectation against the interval model, by direct
    construction of the minimising distribution: sort outcomes by payoff,
    give upper mass to the cheap side and lower mass to the dear side, and
    place the remainder at the unique split position whose interval can
    hold it."""
    rep = is_coherent_pri(m)
    if not rep.coherent:
        raise IncoherenceError("natural extension requires a coherent interval model")
    fv = f.values if isinstance(f, Gamble) else vec(f)
    n = m.n
    if len(fv) != n:
        raise ValueError("gamble length does not match the outcome space")
    order = sorted(range(n), key=lambda i: (fv[i], i))
    p = [None] * n
    for pos, x in enumerate(order):
        before = order[:pos]
        after = order[pos + 1 :]
        r = 1 - sum((m.upper[z] for z in before), ZERO) - sum((m.lower[y] for y in after), ZERO)
        if m.lower[x] <= r <= m.upper[x]:
            for z in before:
                p[z] = m.upper[z]
            for y in after:
                p[y] = m.lower[y]
            p[x] = r
            return dot(fv, vec(p))
    raise AssertionError("coherent model must admit a split position")


def induced_2mono(m: PRIModel) -> LowerProbability:
    """The lower probability induced on events: mass forced into A directly
    plus mass that cannot escape to the complement. For a coherent interval
    model this is the exact envelope and is 2-monotone."""
    n = m.n
    table = []
    for size in range(1, n):
        for s in itertools.combinations(range(n), size):
            a = frozenset(s)
            direct = sum((m.lower[y] for y in a), ZERO)
            forced = 1 - sum((m.upper[z] for z in range(n) if z not in a), ZERO)
            table.append((a, max(direct, forced)))
    return LowerProbability(m.space, tuple(table))


# Largest n count_bounds answers: the upper bound has about 0.3 n decimal
# digits, so at 10000 it stays under Python's default 4300-digit limit on
# printing an int, and takes milliseconds where a billion takes forever.
COUNT_BOUNDS_MAX_N = 10_000


def count_bounds(n: int) -> tuple:
    """Sharp bounds on the number of cones (equivalently walk nodes) of a
    coherent interval model on 3 <= n <= COUNT_BOUNDS_MAX_N outcomes: at
    least n(n-1), at most n! / (floor((n-1)/2)! ceil((n-1)/2)!)."""
    if n < 3:
        raise ValueError("cone counts are defined for n >= 3")
    if n > COUNT_BOUNDS_MAX_N:
        raise ValueError(f"cone counts are answered for n <= {COUNT_BOUNDS_MAX_N}")
    half = (n - 1) // 2
    return (n * (n - 1), n * math.comb(n - 1, half))


def pri_hrep(m: PRIModel):
    """H-representation with one lower row per singleton indicator and one
    upper row per complement indicator, plus the mass-one equality; the
    universe lists every row normal and the constant."""
    n = m.n
    one = ones(n)
    rows = [(unit(n, x), m.lower[x]) for x in range(n)]
    if n > 1:  # a single outcome's complement is the zero vector
        rows += [
            (tuple(o - u for o, u in zip(one, unit(n, x))), 1 - m.upper[x]) for x in range(n)
        ]
    h = HPolytope(n, tuple(rows), ((one, 1),))
    universe = SupportUniverse(tuple(sorted({f for f, _ in rows} | {one})))
    return h, universe


def as_lower_prevision(m: PRIModel) -> LowerPrevision:
    sp = m.space
    lows = [(Gamble.indicator(sp, (x,)), m.lower[x]) for x in range(m.n)]
    ups = [(Gamble.indicator(sp, (x,)), m.upper[x]) for x in range(m.n)]
    return LowerPrevision.from_bounds(sp, lower=lows, upper=ups)


def pri_from_json(obj) -> PRIModel:
    """Parse the interval model document: {"type": "pri", "outcomes":
    [...], "lower": {outcome: rational}, "upper": {...}} with every outcome
    present in both maps."""
    if not isinstance(obj, dict):
        raise SchemaError("$", "model document must be an object")
    if obj.get("type", "pri") != "pri":
        raise SchemaError("$.type", f"expected 'pri', got {obj.get('type')!r}")
    space = _schema_outcomes(obj, "$")
    bounds = []
    for key in ("lower", "upper"):
        raw = obj.get(key)
        if not isinstance(raw, dict):
            raise SchemaError(f"$.{key}", "required: mapping from outcome to rational")
        g = parse_gamble(raw, space, f"$.{key}")
        bounds.append(g.values)
    try:
        return PRIModel(space, bounds[0], bounds[1])
    except ValueError as exc:
        raise SchemaError("$", str(exc)) from None
