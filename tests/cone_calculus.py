"""The cone calculus the acceptance suite checks the paper's claims with,
on the engine's own primitives. The Fraction vector helpers (``unit``,
``ones``, ``dot``) and ``solve_unique``, a unique solve by the package's
integer elimination, live here: only the tests read vectors this way.
Every cone tested for membership or adjacency here is simplicial modulo
the constant-one lineality, so ``dual_basis`` (on ``scaled_inverse``,
the package's integer elimination of [B | I]) gives a vector's unique
coordinates and ``absorbed`` reads membership off their signs: no LP.
Those coordinates are the conic witness. ``dual_basis`` is exact, in
Fractions: the reference the walk's integer dual rows are checked
against. Normal-cone membership is its definition: f is in N(x) iff x
attains E(f). ``chain_cone``, ``adjacent_swaps`` and
``reference_chain_vertex`` give the chain fan of a lower probability
from its definition, in Fractions on frozenset prefixes: the reference
the chain engine's graph is checked against; ``reference_choquet`` is the
Choquet integral on the same prefixes, the reference for the integer one.
``reference_pri_neighbors`` and ``reference_enumerate_extreme_pri`` are
the interval exchange walk on ``PriCone``s in Fractions, seeded by
``seed_cone`` and with each remainder summed from the bounds
(``remainder``, ``vertex_for_cone``): the reference the integer walk and
the split rule of ``credalfans.pri`` are checked against.
``reference_is_coherent_pri`` is the interval coherence test and repair in
Fractions, the reference for the integer one. ``reference_simplex`` is
the LP kernel on arbitrary integer columns: it searches them for the
probability simplex's start basis, scaled units and multiples of 1
included, and refuses columns without it; the reference the package's
kernel, which takes that start from the credal record, is checked against.
``reference_pivot`` is the general Edmonds pivot, every entry by its checked
division, on new lists: the reference ``exactla._pivot``'s fast paths are
checked against. ``full_wall_walk`` is the generic walk crossing every wall
of every node, the one it entered by included: the reference the walk,
which skips that wall at a non-degenerate parent, is checked against.
``universe_of`` builds a support universe from Fraction vectors in any
scale, and ``universe_vectors`` reads one back as the Fraction vectors its
order and its printed strings are defined on.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from credalfans.cones import support_universe
from credalfans.credal import natural_extension
from credalfans.exactla import (
    ONE,
    ZERO,
    _eliminate,
    _scaled,
    _to_optimum,
    rank,
    rat,
    vec,
)
from credalfans import fanwalk
from credalfans.fanwalk import MescGraph, MescNode, _absorbed, _active_table, _crossed, _seed
from credalfans.pri import PRIModel, PriCoherenceReport, pri_hrep


def unit(n: int, i: int) -> tuple:
    assert 0 <= i < n
    return tuple(ONE if j == i else ZERO for j in range(n))


def ones(n: int) -> tuple:
    return (ONE,) * n


def dot(u, v):
    assert len(u) == len(v)
    return sum((a * b for a, b in zip(u, v)), ZERO)


def solve_unique(rows, rhs):
    """Unique exact solution of (possibly overdetermined) rows . x = rhs,
    by ``exactla._eliminate`` on the rows scaled to integers, each on its
    own (a positive row scale keeps the solutions); None when the system is
    inconsistent or underdetermined."""
    rows = list(rows)
    rhs = list(rhs)
    assert rows and len(rows) == len(rhs)
    n = len(rows[0])
    t = [_scaled(vec((*r, b)))[1] for r, b in zip(rows, rhs)]
    det, r = _eliminate(t, n)
    if r < n or any(row[n] != 0 for row in t[n:]):
        return None  # rank-deficient, or a nonzero rhs left over: inconsistent
    return tuple(Fraction(row[n], det) for row in t[:n])


class Cone(NamedTuple):
    """cone(generators) + span(constant-one)."""

    generators: tuple


class Witness(NamedTuple):
    """Conic membership certificate: v == sum coeffs_i generators_i +
    lineality_coeffs[0] (constant-one), with coeffs >= 0 when v is in the
    cone."""

    coeffs: tuple
    lineality_coeffs: tuple


def scaled_inverse(rows):
    """The eliminated right-hand block of [rows | I] for a square integer
    matrix rows: integer row tuples R with R . rows == d I for one d > 0,
    so each row of R is a positive multiple of the matching row of the
    inverse; None when rows is singular."""
    n = len(rows)
    assert all(len(row) == n for row in rows)
    t = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    if _eliminate(t, n)[1] < n:
        return None
    return tuple(tuple(row[n:]) for row in t)


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


def indicator(n, members) -> tuple:
    """0/1 vector of an event given as a set of outcome indices."""
    return tuple(ONE if i in members else ZERO for i in range(n))


def general_vertices(dim, rows, equalities) -> list:
    """The sorted vertices of {x : x . f >= b for (f, b) in rows, x . g == c
    for (g, c) in equalities}, any polyhedron, by exhaustive active-set
    search in Fractions: the oracle for sets the package's record does not
    hold (no row on some p(y), or an equality other than p . 1 = 1)."""
    rows = [(vec(f), rat(b)) for f, b in rows]
    eqs = [(vec(g), rat(c)) for g, c in equalities]
    seen = set()
    for sel in itertools.combinations(rows, dim - (rank([g for g, _ in eqs]) if eqs else 0)):
        system = eqs + list(sel)
        x = solve_unique([f for f, _ in system], [b for _, b in system]) if system else None
        if x is not None and all(dot(x, f) >= b for f, b in rows) and all(
                dot(x, g) == c for g, c in eqs):
            seen.add(x)
    return sorted(seen)


def ray_scan_implied(f, b, other_rows, n):
    """Whether the rows other_rows with p . 1 = 1 imply p . f >= b, by the
    oracle on general polyhedra. Both sets below are pointed, as the other
    rows hold a row on each p(y) but at most one. A descent ray (d . g >= 0
    on every other normal, d . 1 == 0, d . f == -1) exists exactly when its
    set has a vertex, and means p . f is unbounded below on the other rows,
    so not implied; otherwise the minimum of p . f over the other rows'
    vertex set decides."""
    if general_vertices(n, [(g, 0) for g, _ in other_rows], [(ones(n), 0), (f, -1)]):
        return False
    vs = general_vertices(n, other_rows, [(ones(n), 1)])
    return bool(vs) and min(dot(v, f) for v in vs) >= b


def fraction_canonical_row(f, b):
    """The Fraction key of the half-space p . f >= b that the integer key
    replaced, kept as its reference: on p . 1 = 1, f and b shift by f's
    least entry, then scale so f's first nonzero entry is 1. A constant f
    is the zero row."""
    low = min(f)
    f = [a - low for a in f]
    lead = next((a for a in f if a != 0), 1)
    return tuple(a / lead for a in f), (b - low) / lead


def integer_row(f, b):
    """A Fraction key f of fraction_canonical_row and its bound b as the
    credal record writes them: f scaled to its primitive integer normal
    (least entry 0, gcd 1; the zero row stays), b scaled with it."""
    s = math.lcm(*(a.denominator for a in f))
    ints = [a.numerator * (s // a.denominator) for a in f]
    g = math.gcd(*ints) or 1
    return tuple(a // g for a in ints), b * s / g


def universe_of(vectors) -> tuple:
    """``cones.support_universe`` of Fraction vectors in any scale and
    shift: each written as its primitive integer normal, the constant as
    the zero row."""
    return support_universe(integer_row(*fraction_canonical_row(v, 0))[0] for v in vectors)


def universe_vectors(universe) -> tuple:
    """A universe's rows as Fraction vectors, each over its first nonzero
    entry, the constant (the zero row) as the ones vector: the vectors its
    sort order and ``graph_to_json``'s strings are defined on."""
    return tuple(tuple(Fraction(a, next(c for c in v if c)) for a in v) if any(v)
                 else ones(len(v)) for v in universe)


def fraction_credal_hrep(lp):
    """(rows, universe) of lp's credal set by the Fraction rule, as
    ``build_credal_hrep`` wrote them before its integer record: the rows
    [(f, b)] keyed by fraction_canonical_row at the tightest bound, the
    assessments' keys first, then the unassessed outcomes' unit rows (at
    n = 1 the zero row at -1, as p(x) = 1); the universe every nonzero key
    and the constant, sorted."""
    n = lp.space.n
    rows = {}
    for f, b in [(a.gamble.values, a.lower) for a in lp.assessments] + [
            (unit(n, x), ZERO) for x in range(n)]:
        f, b = fraction_canonical_row(f, b)
        rows[f] = max(b, rows.get(f, b))
    return list(rows.items()), sorted({*(f for f in rows if any(f)), ones(n)})


def common_int_rows(rows) -> tuple:
    """(s, s rows): the rows' denominators cleared by one common multiple
    s, which keeps a multiple of a unit column one and the ones column
    constant, as ``_simplex_start`` looks for them."""
    rows = [vec(row) for row in rows]
    s, entries = _scaled([a for row in rows for a in row])
    entries = iter(entries)
    return s, [[next(entries) for _ in row] for row in rows]


def fraction_lp_min(rows, f):
    """(value, vertex) of min p . f over the Fraction rows [(g, b)] with
    p . 1 = 1, on the integer tableau lp_min solved before the integer
    record: the dual's columns (the rows' normals and the +- pair of 1) and
    the target cleared by one common multiple s, the costs (-b, -1 and 1)
    by their own d. Raises exactla.LpUnbounded on an empty set."""
    n = len(f)
    cols = [g for g, _ in rows] + [ones(n), tuple(-a for a in ones(n))]
    s, table = common_int_rows([[c[i] for c in cols] + [f[i]] for i in range(n)])
    d, costs = _scaled([-b for _, b in rows] + [-ONE, ONE])
    det, _, cost, duals = reference_simplex(list(zip(*(row[:-1] for row in table))),
                                            [row[-1] for row in table], costs)
    return Fraction(-cost, det * d), tuple(Fraction(-a * s, det * d) for a in duals)


def full_wall_walk(h, universe):
    """``fanwalk.walk`` as it crossed every wall of every node it added,
    calling ``fanwalk.neighbor_candidates`` at each: the same seed, the
    same drops and re-crossings, the same graph."""
    table = list(_active_table(h, universe))
    reads = [(k, h.den, table[k][1]) for k in h._units if k is not None]
    seen, kept = {}, {}
    edges = set()
    queue = deque()

    def forget(absorbed):
        gone = {table[k][0] for k in absorbed}
        for k in absorbed:
            table[k] = (None, table[k][1])
        dead = {key for key in seen if not gone.isdisjoint(key)}
        for edge in [e for e in edges if not dead.isdisjoint(e)]:
            edges.remove(edge)
            live, lost = sorted(edge, key=dead.__contains__)
            if live not in dead:
                (i,), (g,) = set(live) - set(lost), set(lost) - set(live)
                col = next(k for k, (j, _) in enumerate(table) if j == i)
                queue.append((_crossed(kept[lost], lost.index(g), col, live, table, reads), (i,)))
        for key in dead:
            del seen[key]
            kept.pop(key, None)

    def add(tab):
        if absorbed := _absorbed(tab.node.gens, tab.rows, table):
            forget(absorbed)
        seen[tab.node.gens] = tab.node
        if tab.rows[-1].count(0) >= h.dim:
            kept[tab.node.gens] = tab
        queue.append((tab, tab.node.gens))

    add(_seed(h, table))
    while queue:
        tab, walls = queue.popleft()
        key = tab.node.gens
        if key not in seen:
            continue
        for i in walls:
            c = key.index(i)
            shared = key[:c] + key[c + 1:]
            for j, k in fanwalk.neighbor_candidates(tab, i, table):
                if table[k][0] is None:
                    continue
                other = tuple(sorted(shared + (j,)))
                if other not in seen:
                    add(_crossed(tab, c, k, other, table, reads))
                edges.add(frozenset({key, other}))
    return MescGraph(tuple(seen[k] for k in sorted(seen)), frozenset(edges))


def reference_pivot(t, det, r, c):
    """(rows, new det) of the integer-preserving Gauss-Jordan pivot on
    t[r][c] (Edmonds), t left as it is: the pivot row, negated when
    t[r][c] < 0, and each entry a of another row, f its entry in column c,
    as (p a - f b) / det for the pivot p, asserted exact."""
    pr = [-a for a in t[r]] if t[r][c] < 0 else list(t[r])
    p, rows = pr[c], []
    for i, row in enumerate(t):
        if i == r:
            rows.append(pr)
            continue
        f, new = row[c], []
        for a, b in zip(row, pr):
            q, rest = divmod(p * a - f * b, det)
            assert rest == 0
            new.append(q)
        rows.append(new)
    return rows, p


def _simplex_start(t, m):
    """(det, basis) of the simplex's own start, t rewritten on it, if the
    columns hold a_y e_y (a_y > 0) for each y but y0, the least index of the
    first target w's minimum, and c 1 with c w_y0 >= 0 (the last such
    column), else None: w = w_y0 1 + sum (w_y - w_y0) e_y, so it is feasible.
    det = |c| prod a_y is its |determinant|, so later pivots stay exact."""
    n = len(t)
    w = [row[m] for row in t]
    y0 = w.index(min(w))
    basis = [None] * n
    for j, col in enumerate(zip(*(row[:m] for row in t))):
        if col[y0] and col.count(col[y0]) == n and col[y0] * w[y0] >= 0:
            basis[y0] = j  # c 1
        elif not col[y0] and col.count(0) == n - 1 and max(col) > 0:
            basis[col.index(max(col))] = j  # a_y e_y
    if None in basis:
        return None
    det = abs(math.prod(row[j] for row, j in zip(t, basis)))
    v0 = t[y0]
    for y, (row, j) in enumerate(zip(t, basis)):
        q = det // row[j]
        t[y] = [q * a for a in v0] if y == y0 else [q * (a - b) for a, b in zip(row, v0)]
    return det, basis


def reference_simplex(columns, target, costs) -> tuple:
    """``exactla._optimum`` on integer columns as they are: the start is
    found by a scan of every column (``_simplex_start``), ValueError when
    they do not hold it or differ from the target in length; then the
    package's own phase 2 (``exactla._to_optimum``). (det, levels, cost,
    duals): a basic optimal x as {basic column: level} in row order, the
    cost and the multipliers y, integers over det > 0."""
    n, m = len(target), len(columns)
    if any(len(v) != n for v in columns):
        raise ValueError("columns and target differ in length")
    t = [[*(col[i] for col in columns), target[i], *(int(i == j) for j in range(n))]
         for i in range(n)]
    start = n and _simplex_start(t, m)
    if not start:
        raise ValueError("the columns do not hold the probability simplex's start basis")
    det, basis = start
    t.append([det * a for a in costs] + [0] * (n + 1))
    for row, b in zip(t, basis):
        if costs[b] != 0:
            t[n] = [a - costs[b] * v for a, v in zip(t[n], row)]
    det = _to_optimum(t, det, basis, m)
    return (det, {b: row[m] for row, b in zip(t, basis)},
            -t[n][m], tuple(-a for a in t[n][m + 1:]))


def active_set(h, x) -> frozenset:
    """Indices of the constraints of h tight at the feasible point x: row i
    has index i, and p . 1 = 1 index len(h.rows)."""
    m = len(h.rows)
    return frozenset([i for i, (f, b) in enumerate(zip(h.rows, h.bounds))
                      if dot(vec(x), vec(f)) * h.den == b] + [m])


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
    gets L(A_k) - L(A_{k-1}), L read off the model's public table (the sure
    event at 1). The reference for the step table's vertices."""
    n = lowprob.space.n
    values = {**dict(lowprob.table), frozenset(range(n)): ONE}
    p = [None] * n
    prefix, prev = frozenset(), ZERO
    for x in order:
        prefix = prefix | {x}
        val = values[prefix]
        p[x] = val - prev
        prev = val
    return tuple(p)


def reference_choquet(lowprob, f):
    """Choquet integral of f against L in Fractions, in one pass down the
    outcomes sorted by f, each level step weighted by L of the frozenset
    of the outcomes above it, read off the model's public table."""
    values = dict(lowprob.table)
    fv = vec(f)
    order = sorted(range(len(fv)), key=fv.__getitem__, reverse=True)
    total, level = fv[order[-1]], frozenset()
    for i, j in zip(order, order[1:]):
        level |= {i}
        if fv[j] != fv[i]:
            total += (fv[i] - fv[j]) * values[level]
    return total


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
    uindex = {v: i for i, v in enumerate(universe)}
    row = [uindex[f] for f in h.rows]

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
    m = len(h.rows)
    return Cone(tuple(sorted({vec(h.rows[i]) for i in active_set(h, x) if i < m})))


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
