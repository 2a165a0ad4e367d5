"""Probability intervals: bounds on singleton masses and the combinatorial
fan they induce.

A probability-interval model gives l(x) <= p(x) <= u(x) per outcome; its
coherence, like everything below, is decided on its integer table ``_ints``,
the bounds over their common denominator d, built by its constructor. Every
extreme point of its credal set is a split of an outcome order: the
outcomes before a distinguished x sit at their upper bounds (side B),
those after it at their lower bounds (side A), and x takes the remainder

    R = 1 - sum_A l - sum_B u

when l(x) <= R <= u(x). A gamble is minimised at the first split of its
sorted order (cheapest first) that fits. ``_splits`` writes this rule once,
carrying d R as an int along the order; ``natural_extension_pri`` reads the
value off a gamble's first fitting split, and ``enumerate_extreme_pri``
seeds its walk at the first fitting interior split of the staircase order.

The normal cone of a split is spanned by the singleton indicators over A
(lower rows) and the complement indicators over B (upper rows). The walk
crosses its walls by four exhaustive exchange rules (move y from A to B,
adding l(y) - u(y) to R; swap x with y in A, adding l(y) - l(x); and the two
mirrored B moves), each an int comparison of the carried remainder against
x's own bounds on bitmask sides; a tie emits both sides, which then certify
the same vertex from two cones. No generic LP runs, and the time is
proportional to the number of cones, from n(n-1) up to a central binomial
count. Its graph comes on integers: position pairs from each state's
neighbour keys, generator keys off its bits. Below three outcomes no cone
has both sides nonempty; the generic walk takes those models, and its seed
is the only LP this module runs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .cones import support_universe
from .credal import (
    Assessment,
    Gamble,
    IncoherenceError,
    LowerPrevision,
    OutcomeSpace,
    SchemaError,
    _schema_outcomes,
    parse_gamble,
)
from .exactla import ONE, ZERO, Record, _scaled, vec

__all__ = [
    "PRIModel",
    "PriCoherenceReport",
    "is_coherent_pri",
    "pri_neighbors",
    "enumerate_extreme_pri",
    "natural_extension_pri",
    "induced_2mono",
    "count_bounds",
    "pri_hrep",
    "as_lower_prevision",
    "pri_from_json",
]


class PRIModel(Record):
    """Interval bounds on each singleton mass.

    Construction scales the bounds once, to _ints = (lo, up, d) with
    lo[y] = d l(y) and up[y] = d u(y) as ints over their common denominator
    d, and checks on them only the elementwise sanity 0 <= l <= u <= 1; the
    global conditions (proper: the bounds admit some distribution;
    reachable: every bound is attained) are the business of
    is_coherent_pri, so that improper models can still be built and
    diagnosed.
    """

    __slots__ = ("space", "lower", "upper", "_ints")

    def __init__(self, space: OutcomeSpace, lower, upper):
        lo, up, n = vec(lower), vec(upper), space.n
        if len(lo) != n or len(up) != n:
            raise ValueError("bound vectors must match the outcome space")
        d, bounds = _scaled(lo + up)
        for x in range(n):
            if not (0 <= bounds[x] <= bounds[n + x] <= d):
                raise ValueError(
                    f"need 0 <= l <= u <= 1 at outcome {space.names[x]}")
        self.space, self.lower, self.upper, self._ints = space, lo, up, (bounds[:n], bounds[n:], d)

    @property
    def n(self) -> int:
        return self.space.n


class PriCoherenceReport(NamedTuple):
    """proper: some distribution satisfies all bounds. coherent: proper and
    every bound attained (reachable). repaired: the reachable shrink of the
    intervals, None when improper."""

    proper: bool
    coherent: bool
    repaired: object


def is_coherent_pri(m: PRIModel) -> PriCoherenceReport:
    """Coherent when _reachable on the model's integer table (repaired: m).
    Else proper when sum l <= 1 <= sum u; repaired, same credal set, tightens
    each bound against the mass the other outcomes must or may take."""
    t = lo, up, d = m._ints
    if _reachable(t):
        return PriCoherenceReport(True, True, m)
    sl, su = sum(lo), sum(up)
    if not sl <= d <= su:
        return PriCoherenceReport(False, False, None)
    return PriCoherenceReport(True, False, PRIModel(
        m.space, tuple(Fraction(max(l, d - su + u), d) for l, u in zip(lo, up)),
        tuple(Fraction(min(u, d - sl + l), d) for l, u in zip(lo, up))))


def _reachable(t: tuple) -> bool:
    """No interval of the integer table t wider than min(sum u - 1, 1 - sum l)."""
    lo, up, d = t
    slack = min(sum(up) - d, d - sum(lo))
    return all(u - l <= slack for l, u in zip(lo, up))


def _splits(t: tuple, order):
    """(x, r) for each position of an outcome order, cheapest first: the
    outcomes before x at their upper bounds, those after it at their lower
    bounds, and r = d R the remainder left to x, over the model's integer
    table t. The split fits when lo[x] <= r <= up[x]."""
    lo, up, d = t
    r = d - sum(lo)
    for x in order:
        r += lo[x]
        yield x, r
        r -= up[x]


def pri_neighbors(t: tuple, s: tuple) -> tuple:
    """The states across the walls of a full cone with both sides nonempty.

    t is the model's integer table, s = (x, a, b, r) a cone with its
    sides A and B as outcome bitmasks and r = d R. The wall of y in A leads
    to (x, A - y, B + y) or to (y, A - y + x, B), decided by r + l(y) - u(y)
    against l(x); B walls mirror this against u(x). A tie emits both, and a
    coherent model leaves no wall without a neighbour.
    """
    x, a, b, r = s
    lo, up, _ = t
    n = len(lo)
    bx = 1 << x
    if not a or not b or a & b or (a | b) ^ ((1 << n) - 1) != bx:
        raise ValueError("neighbour rules apply to full cones with both sides nonempty")
    lx, ux = lo[x], up[x]
    out = []
    for y in range(n):
        by = 1 << y
        if a & by:
            ty = r + lo[y] - up[y]
            if a != by and ty >= lx:
                out.append((x, a ^ by, b | by, ty))
            if ty <= lx:
                out.append((y, a ^ by | bx, b, r + lo[y] - lx))
        elif b & by:
            ty = r + up[y] - lo[y]
            if b != by and ty <= ux:
                out.append((x, a | by, b ^ by, ty))
            if ty >= ux:
                out.append((y, a, b ^ by | bx, r + up[y] - ux))
    return tuple(out)


def enumerate_extreme_pri(m: PRIModel):
    """(points, graph): the distinct extreme points of a coherent interval
    model as a tuple in node order, and its MESC adjacency graph, by walking
    the exchange rules from a seed cone. Nodes are keyed by generator
    indices in pri_hrep(m)'s universe (shared per n).

    The walk's states are pri_neighbors' (x, a, b, r) on the model's
    integer table, keyed by a | b << n; each new one must keep
    l(x) <= R <= u(x). Each vertex is keyed by its int row d p (lo on A,
    up on B, r at x), so no Fraction is hashed, and built once, shared by
    its nodes, from the bounds and Fraction(r, d), one per distinct r.

    Raises IncoherenceError on incoherent input (repair it first via
    is_coherent_pri). For n <= 2 the graph is fanwalk.walk's on
    pri_hrep(m), seeded by one LP: one cone with no generators at n == 1,
    and at n == 2 the segment's two ends, each certified by one singleton
    row.
    """
    from .fanwalk import MescGraph, MescNode, walk
    if not is_coherent_pri(m).coherent:
        raise IncoherenceError("extreme-point walk requires a coherent interval model")
    n = m.n
    if n <= 2:
        graph = walk(*pri_hrep(m))
        return tuple(dict.fromkeys(node.vertex for node in graph.nodes)), graph
    t = lo, up, d = m._ints
    # the seed: the first interior split of the staircase gamble (0, ..., n-1)
    # that fits, with A the outcomes after x and B those before it
    seed = next(((x, (1 << n) - (2 << x), (1 << x) - 1, r) for x, r in _splits(t, range(n))
                 if 0 < x < n - 1 and lo[x] <= r <= up[x]), None)
    if seed is None:
        raise IncoherenceError("no valid seed cone; model is not reachable")
    states = {seed[1] | seed[2] << n: seed}
    links = {}  # a state's key -> its neighbours' keys
    queue = [seed]
    while queue:
        s = queue.pop()
        links[s[1] | s[2] << n] = out = []
        for nb in pri_neighbors(t, s):
            x, a, b, r = nb
            nk = a | b << n
            if nk not in states:
                if not lo[x] <= r <= up[x]:
                    raise IncoherenceError("neighbour rule left the fan; model is not reachable")
                states[nk] = nb
                queue.append(nb)
            out.append(nk)
    # bit j of a key is pri_hrep's row j (lower row of y at y, upper row of z
    # at n + z); a node key lists their universe indices, and at ranks the keys
    bits = _interval_fan(n)[2]
    gens = {k: tuple([i for i, j in bits if k >> j & 1]) for k in states}
    at = {k: p for p, k in enumerate(sorted(states, key=gens.__getitem__))}
    # a move's inverse is a rule of the state it reaches: read each edge at its lower end
    pairs = tuple((p, q) for k, p in at.items() for q in sorted(map(at.__getitem__, links[k])) if q > p)
    value = {r: Fraction(r, d) for r in {s[3] for s in states.values()}}  # c -> c / d
    value.update(zip(lo + up, m.lower + m.upper))  # the bounds' own objects
    points, nodes = {}, []  # a vertex's integer row d p -> its one Fraction tuple
    for k in at:
        x, a, b, r = states[k]
        dp = [lo[y] if a >> y & 1 else up[y] for y in range(n)]
        dp[x] = r
        dp = tuple(dp)
        if dp not in points:
            points[dp] = tuple(map(value.__getitem__, dp))
        nodes.append(MescNode(gens[k], points[dp]))
    edges = frozenset(frozenset((nodes[p].gens, nodes[q].gens)) for p, q in pairs)
    return tuple(points.values()), MescGraph(tuple(nodes), edges, positions=pairs)


def natural_extension_pri(m: PRIModel, f):
    """Exact lower expectation against the interval model, by direct
    construction of the minimising distribution: sort outcomes by payoff,
    give upper mass to the cheap side and lower mass to the dear side, and
    place the remainder at the first split position (_splits) whose
    interval can hold it. Coherence (_reachable) and the value, one int sum
    with g = e f made one Fraction, read the model's integer table."""
    t = lo, up, d = m._ints
    if not _reachable(t):
        raise IncoherenceError("natural extension requires a coherent interval model")
    fv = vec(f)
    n = m.n
    if len(fv) != n:
        raise ValueError("gamble length does not match the outcome space")
    e, g = _scaled(fv)
    order = sorted(range(n), key=g.__getitem__)  # stable: ties in outcome order
    for pos, (x, r) in enumerate(_splits(t, order)):
        if lo[x] <= r <= up[x]:
            value = (sum(up[z] * g[z] for z in order[:pos]) + r * g[x]
                     + sum(lo[y] * g[y] for y in order[pos + 1:]))
            return Fraction(value, d * e)
    raise AssertionError("coherent model must admit a split position")


def induced_2mono(m: PRIModel):
    """The lower probability induced on events: mass forced into A directly
    plus mass that cannot escape to the complement. For a coherent interval
    model this is the exact envelope and is 2-monotone. Each event's value
    is summed on the model's integer table and made one Fraction."""
    from .chains2mono import LowerProbability
    lo, up, d = m._ints
    n, su = m.n, sum(up)
    return LowerProbability(m.space, tuple(
        (frozenset(s), Fraction(max(sum(lo[y] for y in s), d - su + sum(up[y] for y in s)), d))
        for size in range(1, n) for s in itertools.combinations(range(n), size)))


# Largest n count_bounds answers: the upper bound has about 0.3 n decimal
# digits, so at 10000 it stays under Python's default 4300-digit limit on
# printing an int, and takes milliseconds where a billion takes forever.
COUNT_BOUNDS_MAX_N = 10_000


def count_bounds(n: int) -> tuple:
    """Sharp bounds on the number of cones (equivalently walk nodes) of a
    coherent interval model on 3 <= n <= COUNT_BOUNDS_MAX_N outcomes with no
    tied split (one cone per vertex; ties can leave both ends): at least
    n(n-1), at most n! / (floor((n-1)/2)! ceil((n-1)/2)!)."""
    if n < 3:
        raise ValueError("cone counts are defined for n >= 3")
    if n > COUNT_BOUNDS_MAX_N:
        raise ValueError(f"cone counts are answered for n <= {COUNT_BOUNDS_MAX_N}")
    half = (n - 1) // 2
    return (n * (n - 1), n * math.comb(n - 1, half))


@lru_cache(maxsize=16)
def _interval_fan(n: int) -> tuple:
    """(normals, universe, bits) on n >= 2 outcomes, kept for the 16 latest n:
    pri_hrep's integer row normals (singletons, then complements), its
    universe (``cones.support_universe`` of them and the zero row), and a
    pair (i, j) per normal j, i its universe index, sorted."""
    events = [{x} for x in range(n)] + [set(range(n)) - {x} for x in range(n)]
    normals = tuple(tuple(int(x in e) for x in range(n)) for e in events)
    universe = support_universe(normals + ((0,) * n,))
    return normals, universe, tuple(sorted((universe.index(f), j) for j, f in enumerate(normals)))


def pri_hrep(m: PRIModel):
    """The credal set as one ``polytope.HPolytope`` on the model's integer table:
    a lower row per singleton indicator, an upper row per complement, and
    two on one indicator (n = 2) merged at the tighter bound; at n = 1 both
    are the zero row, l(x) <= p(x) = 1 <= u(x). The universe, every row
    normal and the constant, is one tuple per n (``_interval_fan``)."""
    from .polytope import HPolytope
    n = m.n
    lo, up, d = m._ints
    if n == 1:
        return HPolytope(1, ((0,),), (max(lo[0] - d, d - up[0]),), d), ((0,),)
    normals, universe, _ = _interval_fan(n)
    bounds: dict = {}
    for f, b in zip(normals, lo + tuple(d - u for u in up)):
        bounds[f] = max(b, bounds.get(f, b))
    return HPolytope(n, bounds, bounds.values(), d), universe


def as_lower_prevision(m: PRIModel) -> LowerPrevision:
    """The 2n assessments of ``LowerPrevision.from_bounds`` on the bounds,
    written down: l(x) on e_x, then -u(x) on -e_x. One outcome's gambles are
    constants, which assess nothing: its one coherent model, l = u = 1, is
    the vacuous lower prevision, and any other raises IncoherenceError."""
    sp, n = m.space, m.n
    if n == 1:
        if not is_coherent_pri(m).coherent:
            raise IncoherenceError("a one-outcome interval model is coherent only at l = u = 1")
        return LowerPrevision(sp, ())
    return LowerPrevision(sp, [
        Assessment(Gamble(sp, tuple([one if y == x else ZERO for y in range(n)])), b)
        for one, bounds in ((ONE, m.lower), (-ONE, [-u for u in m.upper]))
        for x, b in enumerate(bounds)])


def pri_from_json(obj) -> PRIModel:
    """Parse the interval model document: {"type": "pri", "outcomes":
    [...], "lower": {outcome: rational}, "upper": {...}} with every outcome
    present in both maps."""
    space = _schema_outcomes(obj, "pri")
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
