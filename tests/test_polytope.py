"""Vertex oracle, active sets, normal cones, exact LP."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credalfans import exactla, polytope
from credalfans.exactla import _scaled, rat, vec
from credalfans.polytope import (
    EmptyPolytopeError,
    HPolytope,
    OracleGuardError,
    Vertex,
    lp_min,
    vertices_bruteforce,
)

from cone_calculus import (
    Cone,
    active_set,
    dot,
    general_vertices,
    normal_cone_at,
    ones,
    reference_simplex,
    unit,
)
from conftest import (
    assessed_rows,
    belief_masses,
    coherent_intervals,
    fraction_rows,
    hrep,
    interval_hrep,
    lowprob_hrep,
    rows_hrep,
)

Q = rat


def simplex(n):
    return hrep(n, [(unit(n, i), 0) for i in range(n)])


def interval_polytope(lowers, uppers):
    """p(x) in [l(x), u(x)] per outcome, masses summing to one; the upper
    rows are written on complement indicators so every normal is 0/1."""
    n = len(lowers)
    rows = [(unit(n, i), Q(lowers[i])) for i in range(n)]
    for i in range(n):
        comp = tuple(Q(0) if j == i else Q(1) for j in range(n))
        rows.append((comp, 1 - Q(uppers[i])))
    return hrep(n, rows)


PRI3 = interval_polytope(["1/6"] * 3, ["1/2"] * 3)


def test_constructor_validation():
    # the record takes primitive integer normals (least entry 0, coprime,
    # nonzero past one outcome), distinct, one bound each over a positive
    # den, and a row on each p(y)
    e0, e1 = (1, 0), (0, 1)
    for rows, bounds, den in (([e0, e1, (0, 0)], [0] * 3, 1), ([e0, e1, (1, 0, 0)], [0] * 3, 1),
                              ([e0, e1, (1, 1)], [0] * 3, 1), ([e0, e1, (2, 0)], [0] * 3, 1),
                              ([e0, e1, e0], [0] * 3, 1), ([e0, e1], [0], 1), ([e0, e1], [0, 0], 0),
                              ([e0, (1, 2)], [0, 0], 1)):
        with pytest.raises(ValueError):
            HPolytope(2, rows, bounds, den)
    assert vertices_bruteforce(HPolytope(1, [(0,)], [-1], 1)) == (Vertex(vec([1])),)


def test_simplex_vertices():
    vs = vertices_bruteforce(simplex(3))
    assert [v.point for v in vs] == [vec([0, 0, 1]), vec([0, 1, 0]), vec([1, 0, 0])]
    v = vs[2]  # (1,0,0): both other nonnegativity rows tight plus equality
    assert active_set(simplex(3), v.point) == frozenset({1, 2, 3})


def test_interval_polytope_vertices_are_permutations():
    vs = vertices_bruteforce(PRI3)
    expected = sorted(set(itertools.permutations(vec(["1/2", "1/3", "1/6"]))))
    assert [v.point for v in vs] == expected


def test_duplicate_rows_do_not_duplicate_vertices():
    # a repeated half-space, here scaled and shifted, is one row of the record
    (f, b), *_ = fraction_rows(PRI3)
    p = hrep(3, fraction_rows(PRI3) + [(tuple(2 * a + 1 for a in f), 2 * b + 1)])
    assert p == PRI3 and len(vertices_bruteforce(p)) == 6


def test_active_set_known_vertex():
    x = vec(["1/2", "1/3", "1/6"])
    act = active_set(PRI3, x)
    # rows: 0-2 lower bounds, 3-5 upper (complement) rows, 6 equality
    assert act == frozenset({2, 3, 6})


def test_normal_cone_at_known_vertex():
    c = normal_cone_at(PRI3, vec(["1/2", "1/3", "1/6"]))
    assert c == Cone((vec([0, 0, 1]), vec([0, 1, 1])))


def test_lp_min_generic_direction():
    val, arg = lp_min(PRI3, vec([3, 2, 1]))
    assert val == Q("5/3")
    assert arg.point == vec(["1/6", "1/3", "1/2"])


def test_lp_min_constant_direction_hits_equality():
    val, _ = lp_min(PRI3, ones(3))
    assert val == Q(1)


def test_lp_min_tie_break_lexicographic():
    # (1, 1, 0) is minimised at (0, 0, 1) alone; lp_min promises no tie rule
    val, arg = lp_min(simplex(3), vec([1, 1, 0]))
    assert val == Q(0)
    assert arg.point == vec([0, 0, 1])


def test_empty_polytope():
    p = interval_polytope(["2/3"] * 3, ["2/3"] * 3)  # masses would sum to 2
    assert vertices_bruteforce(p) == ()
    with pytest.raises(EmptyPolytopeError):
        lp_min(p, ones(3))


@st.composite
def oracle_records(draw):
    """Records at dim 1..5 through hrep: integer gambles with bounds on a
    coarse grid or tight at the uniform pmf, so bounds tie; a gamble may
    come again as 2 g + 1 under the same or a weaker bound, one key with
    repeated bounds; unit rows with positive bounds can empty the set; at
    dim 1 every row is the zero row, its bound deciding empty or {(1,)}."""
    n = draw(st.integers(1, 5))
    grid = st.sampled_from([Q(k) / 12 for k in (-12, -6, -3, 0, 0, 2, 3, 4, 6)])
    rows = [(unit(n, x), draw(st.sampled_from((Q(0), Q(0), Q(1) / 4, Q(1) / 3)))) for x in range(n)]
    gamble = st.tuples(*[st.integers(-2, 3)] * n).filter(lambda g: n == 1 or len(set(g)) > 1)
    for g in draw(st.lists(gamble, max_size=6)):
        b = draw(st.one_of(grid, st.just(Q(sum(g)) / n)))
        rows.append((g, b))
        if draw(st.booleans()):
            rows.append((tuple(2 * a + 1 for a in g), 2 * b + 1 - draw(st.sampled_from((0, 1)))))
    return hrep(n, rows)


@settings(max_examples=150, deadline=None)
@given(oracle_records())
@example(HPolytope(1, [(0,)], [0], 1))
@example(HPolytope(1, [(0,)], [1], 3))  # p(0) = 1 misses 0 >= 1/3: empty
@example(interval_polytope(["1/6"] * 5, ["1/4"] * 5))  # tied bounds, degenerate vertices
@example(interval_polytope(["2/3"] * 3, ["2/3"] * 3))  # empty
def test_oracle_matches_the_general_active_set_search(h):
    """The integer oracle returns, point for point and in order, the
    Fraction active-set search over the record's rows with p . 1 = 1."""
    expected = general_vertices(h.dim, fraction_rows(h), [(ones(h.dim), 1)])
    assert [v.point for v in vertices_bruteforce(h)] == expected


def _reference_dual(p, objective):
    """The reference kernel on p's dual as the parent kernel took it: the
    columns p's rows and the +- pair of 1, searched for the start."""
    one = (1,) * p.dim
    return reference_simplex((*p.rows, one, tuple(-a for a in one)), objective,
                             (*(-b for b in p.bounds), -p.den, p.den))


@settings(max_examples=150, deadline=None)
@given(oracle_records(), st.data())
def test_the_kept_start_matches_the_reference_kernel(h, data):
    """On every drawn record, tied bounds and the dim-1 zero row included,
    lp_min's value and vertex, ties included, are the reference kernel's,
    which finds its start by a scan of the dual's columns."""
    fs = [vec(f) for f in data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * h.dim), min_size=1, max_size=4))]
    for f in fs:
        e, g = _scaled(f)
        try:
            det, _, cost, duals = _reference_dual(h, g)
        except exactla.LpUnbounded:
            with pytest.raises(EmptyPolytopeError):
                lp_min(h, f)
            continue
        s = det * h.den
        assert lp_min(h, f) == (Q(-cost) / (s * e), Vertex(tuple(Q(-a) / s for a in duals)))


def quadrant_dual(f):
    """The reference LP kernel on the dual of min x . f over the quadrant
    x >= 0, with no x . 1 fixed: no record holds that set, and its dual's
    columns, the unit vectors alone, hold no start."""
    return reference_simplex([(1, 0), (0, 1)], _scaled(vec(f))[1], [0, 0])


def test_lp_min_unbounded_raises():
    # the quadrant has one vertex, the origin, but x . (1, -1) has no
    # minimum; with no multiple of x . 1 fixed, its dual holds no start
    for f in ((1, -1), (1, 2)):
        with pytest.raises(ValueError, match="start basis"):
            quadrant_dual(f)


def test_lp_min_tells_empty_from_unbounded():
    # an empty credal set, whatever the objective, is EmptyPolytopeError;
    # the unbounded quadrant is refused before any LP runs
    empty = interval_polytope(["2/3"] * 3, ["2/3"] * 3)
    for f in ((0, -1, 0), (1, 0, 0), (0, 0, 0)):
        with pytest.raises(EmptyPolytopeError):
            lp_min(empty, vec(f))
    with pytest.raises(ValueError, match="start basis"):
        quadrant_dual([1, -1])


def test_lp_min_without_a_vertex():
    # a half-plane has a minimum of x1 but no vertex to return: without a
    # row on p(1) the record refuses it, so no LP runs
    with pytest.raises(ValueError, match="no row on some p"):
        hrep(2, [(unit(2, 0), 0)])


def test_lp_min_makes_one_kernel_call(monkeypatch):
    calls = []
    kernel = polytope._optimum

    def spy(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(polytope, "_optimum", spy)
    assert lp_min(PRI3, vec([3, 2, 1])).value == Q(5) / 3
    assert calls == [(3, 2, 1)]
    # an objective of the wrong length is refused before the kernel runs,
    # not truncated
    for f in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="differ in length"):
            lp_min(simplex(2), vec(f))
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(assessed_rows(), st.data())
def test_lp_min_matches_oracle(model, data):
    n, rows = model
    p = rows_hrep(n, rows)
    vs = vertices_bruteforce(p)
    for f in data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=3, max_size=3)):
        f = vec(f)
        if not vs:
            with pytest.raises(EmptyPolytopeError):
                lp_min(p, f)
            continue
        value, arg = lp_min(p, f)
        assert value == min(dot(v.point, f) for v in vs)
        assert arg in vs and dot(arg.point, f) == value


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
def test_lp_min_on_a_shifted_orthant(drawn):
    # x >= c / s with s = c . 1 + 1 (c . 1 >= 0) and x . 1 == 1, p . 1 = 1
    # as in every record: x = (c + y) / s for y in the simplex, with the
    # minimum (c . f + min f) / s at (c + e_y) / s for some y where f is least
    c, f = (vec(v) for v in drawn)
    c = tuple(a + max(-sum(c), 0) if i == 0 else a for i, a in enumerate(c))  # c . 1 >= 0
    n, s = len(c), sum(c) + 1
    value, arg = lp_min(hrep(n, [(unit(n, i), c[i] / s) for i in range(n)]), f)
    assert value == (dot(c, f) + min(f)) / s
    assert arg in {Vertex((a + (i == y)) / s for i, a in enumerate(c))
                   for y in range(n) if f[y] == min(f)}


def _optimum_runs(call):
    """(call(), its count of exactla._to_optimum runs): 1 on every solve,
    phase 2 alone from the simplex's own start."""
    runs, real = [], exactla._to_optimum

    def spy(*args):
        runs.append(args)
        return real(*args)

    exactla._to_optimum = spy
    try:
        return call(), len(runs)
    finally:
        exactla._to_optimum = real


def _off_units(rows):
    """rows with each a e_x >= b (a > 0) written on the complement as
    -a (1 - e_x) >= b - a: the same set wherever p . 1 == 1, and no unit
    column left in the dual, so no start."""
    for f, b in rows:
        (x, *more) = [i for i, a in enumerate(f) if a]
        if more or f[x] < 0:
            yield f, b
        else:
            yield tuple(Q(0) if i == x else -f[x] for i in range(len(f))), b - f[x]


_seeded = st.tuples(st.integers(2, 5), st.randoms(use_true_random=False))
credal_hreps = st.one_of(
    _seeded.map(lambda a: interval_hrep(*coherent_intervals(a[1], a[0]))),
    _seeded.map(lambda a: lowprob_hrep(min(a[0], 4), belief_masses(a[1], min(a[0], 4)))),
    st.just(interval_polytope(["1/6"] * 5, ["1/4"] * 5)),  # degenerate: tied bounds
    assessed_rows().map(lambda model: rows_hrep(*model)),  # tied, envelope, empty
)


@settings(max_examples=80, deadline=None)
@given(credal_hreps, st.data())
def test_lp_on_credal_sets_matches_the_oracle(p, data):
    """A credal set's dual starts at the simplex's own basis: one
    _to_optimum run gives the oracle's minima, and lp_min a vertex of the
    oracle's attaining it. Its twin, every unit row rewritten off the unit
    vectors, is the same set, and on primitive normals the same record."""
    assert hrep(p.dim, _off_units(fraction_rows(p))) == p
    vs = vertices_bruteforce(p)
    fs = [vec(f) for f in data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * p.dim), min_size=1, max_size=4))]
    if not vs:
        for f in fs:
            with pytest.raises(EmptyPolytopeError):
                lp_min(p, f)
        return
    expected = [min(dot(v.point, f) for v in vs) for f in fs]
    for f, value in zip(fs, expected):
        (got, arg), k = _optimum_runs(lambda: lp_min(p, f))
        assert (got, k) == (value, 1)
        assert arg in vs and dot(arg.point, f) == value


def _simplex_rows(units, f, b):
    """Rows a e_x >= 0 for each (a, x) of units, in that order, then f >= b."""
    return tuple((tuple(Q(a) * e for e in unit(3, x)), Q(0)) for a, x in units) + ((vec(f), Q(b)),)


EDGE_CASES = [
    # (rows, equalities, objective, _to_optimum runs): the record keys each
    # row on its primitive normal, so a unit row scaled, or written on its
    # complement, is e_y, and each credal set holds the kernel's start: one
    # run. Every case keeps p . 1 == 1 (a positive multiple of it), the
    # record's implicit equality; another equality g == b is the two rows
    # g >= b and -g >= -b. Runs 0: some p(y) has no row, so the record
    # refuses the rows and no LP runs
    (_simplex_rows([(2, 0), (1, 1), (3, 2)], (1, 1, 0), "1/3"), [(ones(3), 1)], (3, 2, 1), 1),
    (_simplex_rows([(1, 2), (5, 0), (1, 1)], (1, 1, 0), "1/3"), [(ones(3), 1)], (3, 2, 1), 1),
    (_simplex_rows([(1, 0), (1, 1), (1, 2)], (1, 1, 0), "1/3"), [(vec([2, 2, 2]), 2)], (1, 2, 3), 1),
    (_simplex_rows([(1, 0), (1, 1), (1, 2)], (1, 0, 1), "1/4"), [(ones(3), 1)], (2, 1, 1), 1),
    (_simplex_rows([(1, 0), (1, 1), (1, 2)], (1, 0, 1), "1/4"), [(ones(3), 1)], (0, -1, -1), 1),
    # p(2) >= 0 on the complement is the row e_2 >= 0
    (_simplex_rows([(1, 0), (1, 1)], (-1, -1, 0), -1), [(ones(3), 1)], (2, 3, 1), 1),
    # no row on p(2), then none on p(0)
    (_simplex_rows([(1, 0), (1, 1)], (1, 1, 0), 0), [(ones(3), 1)], (1, 3, 2), 0),
    (_simplex_rows([(1, 1), (1, 2)], (1, -1, 0), 0), [(ones(3), 1)], (3, 2, 1), 0),
    # an equality beside p . 1 == 1
    (_simplex_rows([(1, 0), (1, 1), (1, 2)], (1, 1, 0), 0),
     [(ones(3), 1), (vec([1, -1, 0]), 0)], (3, 2, 1), 1),
]


@pytest.mark.parametrize("rows, equalities, f, runs", EDGE_CASES)
def test_the_simplex_start_at_the_edge_of_its_hypotheses(rows, equalities, f, runs):
    assert any(len(set(g)) == 1 and g[0] == b for g, b in equalities)
    rows += tuple((tuple(s * a for a in g), s * b)
                  for g, b in equalities if len(set(g)) > 1 for s in (1, -1))
    if not runs:
        with pytest.raises(ValueError, match="no row on some p"):
            hrep(3, rows)
        return
    p = hrep(3, rows)
    f = vec(f)
    (value, arg), k = _optimum_runs(lambda: lp_min(p, f))
    assert k == runs
    vs = vertices_bruteforce(p)
    assert value == min(dot(v.point, f) for v in vs) and arg in vs and dot(arg.point, f) == value


def test_oracle_guards():
    with pytest.raises(OracleGuardError):
        vertices_bruteforce(simplex(7))
    # 3 unit rows and 23 more distinct normals: 27 constraints with p . 1 = 1
    wide = hrep(3, [(unit(3, i), 0) for i in range(3)] + [((0, 1, k), -1) for k in range(2, 25)])
    with pytest.raises(OracleGuardError, match="27 constraints"):
        vertices_bruteforce(wide)
    assert len(vertices_bruteforce(simplex(7), max_dim=7)) == 7


def test_every_vertex_has_full_rank_active_set():
    from credalfans.exactla import rank

    for v in vertices_bruteforce(PRI3):
        rows = fraction_rows(PRI3) + [(ones(3), 1)]
        normals = [rows[i][0] for i in sorted(active_set(PRI3, v.point))]
        assert rank(normals) == PRI3.dim


def test_lp_min_agrees_with_float_solver():
    scipy = pytest.importorskip("scipy.optimize")
    import random

    rng = random.Random(7)
    for _ in range(5):
        lows = [Q(rng.randint(0, 2)) / 12 for _ in range(4)]
        ups = [l + Q(rng.randint(2, 6)) / 12 for l in lows]
        p = interval_polytope(lows, ups)
        vs = vertices_bruteforce(p)
        if not vs:
            continue
        f = [Q(rng.randint(-6, 6)) / rng.randint(1, 4) for _ in range(4)]
        exact, _ = lp_min(p, f)
        res = scipy.linprog(
            [float(a) for a in f],
            A_ub=[[-float(a) for a in row] for row, _ in fraction_rows(p)],
            b_ub=[-float(b) for _, b in fraction_rows(p)],
            A_eq=[[1.0] * 4],
            b_eq=[1.0],
            bounds=[(None, None)] * 4,
            method="highs",
        )
        assert res.status == 0
        assert abs(res.fun - float(exact)) < 1e-9
