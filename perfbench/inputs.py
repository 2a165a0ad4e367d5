"""Seeded model and gamble generators, and checks that do not go through the
engine under test.

Every generator takes a ``random.Random`` and returns exact-rational models.
Ties and degenerate interval models are not filtered out: bounds sit on a
grid of denominator 720, where ties between interval ends are common.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from credalfans import chains2mono, credal, pri
from credalfans.credal import LowerPrevision, OutcomeSpace


def space(n: int) -> OutcomeSpace:
    return OutcomeSpace(tuple(f"x{i + 1}" for i in range(n)))


def gamble(rng, n: int) -> tuple:
    return tuple(Fraction(rng.randint(-36, 72), 12) for _ in range(n))


def pri_model(rng, n: int, below=(40, 60), above=(5, 15), den: int = 720) -> pri.PRIModel:
    """Coherent interval model around a near-uniform centre pmf: each lower
    bound sits ``below`` percent under the centre mass and each upper bound
    ``above`` percent over it (ranges of whole percents), rounded outward to
    the grid, then shrunk to its reachable form.

    The default, a low floor with a tight ceiling, gives cone counts near
    the lower bound n(n - 1) of ``count_bounds`` (ties included); every
    interval model of the benchmark comes from it. Symmetric offsets give
    counts near the upper bound."""
    w = [rng.randint(8, 12) for _ in range(n)]
    total = sum(w)
    lo, up = [], []
    for wi in w:
        p = Fraction(wi, total)
        lo.append(Fraction(math.floor(p * (1 - Fraction(rng.randint(*below), 100)) * den), den))
        up.append(Fraction(math.ceil(p * (1 + Fraction(rng.randint(*above), 100)) * den), den))
    m = pri.PRIModel(space(n), tuple(lo), tuple(up))
    return pri.is_coherent_pri(m).repaired


def reproducer_pri() -> pri.PRIModel:
    """The degenerate interval model l = 1/6, u = 1/4 on five outcomes: the
    fan engines return 50 overlapping cones for it."""
    return pri.PRIModel(space(5), (Fraction(1, 6),) * 5, (Fraction(1, 4),) * 5)


def belief_masses(rng, n: int, k: int) -> list:
    """k random focal sets (as frozensets) with integer masses."""
    return [(frozenset(rng.sample(range(n), rng.randint(1, n - 1))), rng.randint(1, 4))
            for _ in range(k)]


def belief_lowprob(n: int, masses) -> chains2mono.LowerProbability:
    """Belief function of the focal masses: completely monotone, so
    2-monotone."""
    total = sum(m for _, m in masses)
    table = []
    for size in range(1, n):
        for s in itertools.combinations(range(n), size):
            a = frozenset(s)
            table.append((a, Fraction(sum(m for f, m in masses if f <= a), total)))
    return chains2mono.LowerProbability(space(n), tuple(table))


def supermodular_lowprob(rng, n: int) -> chains2mono.LowerProbability:
    """alpha * Bel + (1 - alpha) * Q^2 for a random belief function Bel and a
    random pmf Q: a mixture of 2-monotone capacities, so 2-monotone, with
    (generically) n! distinct chain vertices."""
    masses = belief_masses(rng, n, 3)
    total = sum(m for _, m in masses)
    q = [rng.randint(1, 9) for _ in range(n)]
    qt = sum(q)
    alpha = Fraction(rng.randint(1, 3), 4)
    table = []
    for size in range(1, n):
        for s in itertools.combinations(range(n), size):
            a = frozenset(s)
            bel = Fraction(sum(m for f, m in masses if f <= a), total)
            qa = Fraction(sum(q[i] for i in a), qt)
            table.append((a, alpha * bel + (1 - alpha) * qa * qa))
    return chains2mono.LowerProbability(space(n), tuple(table))


def envelope_prevision(rng, n: int, k: int, m: int) -> LowerPrevision:
    """Lower envelope of k random pmfs on m random non-constant gambles.
    Every pmf dominates every assessment and attains the minimal one, so
    the model is coherent."""
    pmfs = []
    for _ in range(k):
        w = [rng.randint(1, 9) for _ in range(n)]
        pmfs.append([Fraction(x, sum(w)) for x in w])
    lows, seen = [], set()
    while len(lows) < m:
        g = tuple(Fraction(rng.randint(-4, 8)) for _ in range(n))
        if len(set(g)) == 1 or g in seen:
            continue
        seen.add(g)
        lows.append((g, min(sum(a * b for a, b in zip(g, p)) for p in pmfs)))
    return LowerPrevision.from_bounds(space(n), lower=lows)


def irredundant(lp: LowerPrevision) -> LowerPrevision:
    """The same credal set, assessed by one gamble per facet: an assessment
    is kept when the exact vertices on its hyperplane span n - 2
    dimensions, and only the first of those that describe the same
    half-space of the simplex (gambles equal up to a positive factor and a
    constant)."""
    n = lp.space.n
    verts = model_vertices(lp)
    kept = {}
    for a in lp.assessments:
        g = a.gamble.values
        on = [p for p in verts if dot(g, p) == a.lower]
        if on and _rank([tuple(x - y for x, y in zip(p, on[0])) for p in on[1:]]) == n - 2:
            lo, span = min(g), max(g) - min(g)
            half_space = (tuple((x - lo) / span for x in g), (a.lower - lo) / span)
            kept.setdefault(half_space, (g, a.lower))
    return LowerPrevision.from_bounds(lp.space, lower=list(kept.values()))


# ------------------------------------------------------------- checks


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def pri_feasible(m: pri.PRIModel, p) -> bool:
    return (len(p) == m.n and sum(p) == 1
            and all(lo <= x <= up for lo, x, up in zip(m.lower, p, m.upper)))


def _solve(rows, rhs):
    """The unique solution of rows . x = rhs (square, exact), or None when
    the system is singular. Plain Gaussian elimination."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            f = a[i][col]
            if i != col and f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][n] for i in range(n))


def _rank(rows) -> int:
    """Rank of a list of exact vectors, by plain Gaussian elimination."""
    a = [list(r) for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def vertices_from_rows(n: int, rows) -> frozenset:
    """Exact vertex set of {p : sum(p) = 1, p >= 0, a . p >= b for (a, b) in
    rows}: every n - 1 of the inequalities taken as equalities together with
    sum(p) = 1; the nonsingular systems with a feasible solution give exactly
    the vertices."""
    ineq = {(tuple(Fraction(x) for x in a), Fraction(b)) for a, b in rows}
    ineq |= {(tuple(Fraction(int(i == j)) for j in range(n)), Fraction(0)) for i in range(n)}
    ineq = sorted(ineq)
    ones = (Fraction(1),) * n
    out = set()
    for subset in itertools.combinations(ineq, n - 1):
        p = _solve([a for a, _ in subset] + [ones], [b for _, b in subset] + [Fraction(1)])
        if p is not None and all(dot(a, p) >= b for a, b in ineq):
            out.add(p)
    return frozenset(out)


def interval_vertices(m: pri.PRIModel) -> frozenset:
    """Exact vertex set of an interval model: the points of the simplex
    within the bounds that have at least n - 1 coordinates at a bound
    (n * 2**(n - 1) candidates), in integers over the common denominator."""
    n = m.n
    den = math.lcm(*(x.denominator for x in (*m.lower, *m.upper)))
    lo = [int(x * den) for x in m.lower]
    up = [int(x * den) for x in m.upper]
    out = set()
    for j in range(n):
        others = [(lo[i], up[i]) for i in range(n) if i != j]
        for choice in itertools.product(*others):
            rest = den - sum(choice)
            if lo[j] <= rest <= up[j]:
                out.add((*choice[:j], rest, *choice[j:]))
    return frozenset(tuple(Fraction(x, den) for x in p) for p in out)


def model_vertices(model) -> frozenset:
    """Exact vertex set of the credal set of an interval model, a lower
    probability or a lower prevision, from the model's own numbers."""
    if isinstance(model, pri.PRIModel):
        return interval_vertices(model)
    n = model.space.n
    if isinstance(model, chains2mono.LowerProbability):
        rows = [(tuple(int(i in event) for i in range(n)), value) for event, value in model.table]
    else:
        rows = [(a.gamble.values, a.lower) for a in model.assessments]
    return vertices_from_rows(n, rows)


def lowprob_points_checked(lowprob: chains2mono.LowerProbability, points):
    """(den, integer points) when every point is a pmf dominating the lower
    probability on every event, else None; ``den`` is the common
    denominator the points were scaled by.

    Integer arithmetic, event masses by a subset recurrence over bitmasks."""
    n = lowprob.space.n
    den = 1
    for _, v in lowprob.table:
        den = den * v.denominator // math.gcd(den, v.denominator)
    bound = [(sum(1 << i for i in e), int(v * den)) for e, v in lowprob.table]
    out = []
    for p in points:
        scaled = [Fraction(x) * den for x in p]
        if len(p) != n or any(x.denominator != 1 or x < 0 for x in scaled) or sum(scaled) != den:
            return None
        ints = [int(x) for x in scaled]
        mass = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            mass[mask] = mass[mask ^ low] + ints[low.bit_length() - 1]
        if any(mass[k] < b for k, b in bound):
            return None
        out.append(ints)
    return den, out


def min_over_int_points(den, int_points, g):
    """min over the points of g . p, for points scaled to integers by den
    and a gamble on the grid of twelfths."""
    g12 = [int(x * 12) for x in g]
    best = min(sum(a * b for a, b in zip(g12, p)) for p in int_points)
    return Fraction(best, 12 * den)


def belief_expectation(n: int, masses, g):
    """Lower expectation of a belief function, from its Moebius masses:
    sum over focal sets of mass times the gamble's minimum on the set."""
    total = sum(m for _, m in masses)
    return sum((Fraction(m, total) * min(g[i] for i in f) for f, m in masses), Fraction(0))


# ------------------------------------------------------------ model files


def _r(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def pri_document(m: pri.PRIModel) -> dict:
    names = m.space.names
    return {"type": "pri", "outcomes": list(names),
            "lower": {x: _r(v) for x, v in zip(names, m.lower)},
            "upper": {x: _r(v) for x, v in zip(names, m.upper)}}


def gamble_document(names, g) -> dict:
    return {x: _r(v) for x, v in zip(names, g)}


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def read_model(path):
    """(type tag, model) of a model file, parsed by the package's own
    schema readers (parsing is not what the checks are about)."""
    with open(path) as fh:
        obj = json.load(fh)
    tag = obj["type"]
    parse = {"pri": pri.pri_from_json,
             "lower_probability": chains2mono.lower_probability_from_json,
             "lower_prevision": credal.lower_prevision_from_json}[tag]
    return tag, parse(obj)
