"""Vertex oracle, active sets, normal cones, exact LP."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalfans import exactla, polytope
from credalfans.exactla import dot, indicator, ones, rat, unit, vec
from credalfans.polytope import (
    EmptyPolytopeError,
    HPolytope,
    OracleGuardError,
    UnboundedLpError,
    Vertex,
    lp_min,
    lp_minima,
    vertices_bruteforce,
)

from cone_calculus import Cone, active_set, normal_cone_at
from conftest import assessed_rows, rows_hrep

Q = rat


def simplex(n):
    return HPolytope(
        n,
        tuple((unit(n, i), 0) for i in range(n)),
        ((ones(n), 1),),
    )


def interval_polytope(lowers, uppers):
    """p(x) in [l(x), u(x)] per outcome, masses summing to one; the upper
    rows are written on complement indicators so every normal is 0/1."""
    n = len(lowers)
    rows = [(unit(n, i), Q(lowers[i])) for i in range(n)]
    for i in range(n):
        comp = tuple(Q(0) if j == i else Q(1) for j in range(n))
        rows.append((comp, 1 - Q(uppers[i])))
    return HPolytope(n, tuple(rows), ((ones(n), 1),))


PRI3 = interval_polytope(["1/6"] * 3, ["1/2"] * 3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        HPolytope(2, (((0, 0), 1),))
    with pytest.raises(ValueError):
        HPolytope(2, (((1, 0, 0), 1),))


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
    p = HPolytope(
        3,
        PRI3.inequalities + PRI3.inequalities[:1],
        PRI3.equalities,
    )
    assert len(vertices_bruteforce(p)) == 6


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


def test_lp_min_unbounded_raises():
    # the quadrant has one vertex, the origin, but x . (1, -1) has no minimum
    quadrant = HPolytope(2, ((unit(2, 0), 0), (unit(2, 1), 0)))
    with pytest.raises(UnboundedLpError):
        lp_min(quadrant, vec([1, -1]))
    assert lp_min(quadrant, vec([1, 2])) == (0, Vertex(vec([0, 0])))


def test_lp_min_tells_empty_from_unbounded():
    # x1 >= 1 and x1 <= 0: empty, although (0, -1) also leaves the normals' cone
    empty = HPolytope(2, ((unit(2, 0), 1), (vec([-1, 0]), 0)))
    with pytest.raises(EmptyPolytopeError):
        lp_min(empty, vec([0, -1]))
    with pytest.raises(EmptyPolytopeError):
        lp_min(empty, vec([1, 0]))


def test_lp_min_without_a_vertex():
    # a half-plane has a minimum of x1 but no vertex to return
    with pytest.raises(EmptyPolytopeError):
        lp_min(HPolytope(2, ((unit(2, 0), 0),)), unit(2, 0))


def test_lp_minima_of_no_objective_runs_no_guard_and_no_lp(monkeypatch):
    big = simplex(7)  # past the oracle's dimension guard

    def no_lp(*args):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(polytope, "simplex_each", no_lp)
    assert lp_minima(big, []) == []
    with pytest.raises(OracleGuardError):
        lp_minima(big, [ones(7)])


def test_lp_minima_raises_as_lp_min():
    quadrant = HPolytope(2, ((unit(2, 0), 0), (unit(2, 1), 0)))
    assert lp_minima(quadrant, [vec([1, 2]), vec([3, 0])]) == [0, 0]
    # the second objective leaves the normals' cone in the dual restore
    with pytest.raises(UnboundedLpError):
        lp_minima(quadrant, [vec([1, 2]), vec([1, -1])])
    with pytest.raises(UnboundedLpError):
        lp_minima(quadrant, [vec([1, -1]), vec([1, 2])])
    empty = HPolytope(2, ((unit(2, 0), 1), (vec([-1, 0]), 0)))
    with pytest.raises(EmptyPolytopeError):
        lp_minima(empty, [vec([0, -1]), vec([1, 0])])
    half_plane = HPolytope(2, ((unit(2, 0), 0),))  # a minimum of x1, but no vertex
    with pytest.raises(EmptyPolytopeError):
        lp_minima(half_plane, [unit(2, 0), unit(2, 1)])
    # an objective of the wrong length is refused, not truncated
    for objectives in ([vec([1, 2]), vec([1, 2, 3])], [vec([1])]):
        with pytest.raises(ValueError):
            lp_minima(quadrant, objectives)
    with pytest.raises(ValueError):
        lp_min(quadrant, vec([1]))


def test_lp_minima_tied_dual_restore(monkeypatch):
    """l = 1/6, u = 1/4 on five outcomes, a degenerate interval model: the
    lower probability of an event A is max(|A| / 6, 1 - (5 - |A|) / 4),
    tied at |A| = 3. The dual restores between the events meet tied
    entering ratios, and still end at those optima."""
    p = interval_polytope(["1/6"] * 5, ["1/4"] * 5)
    m = len(p.inequalities) + 2 * len(p.equalities)  # the dual's columns
    tied = []
    pivot = exactla._pivot

    def spy(t, det, r, c):
        row, cost = t[r], t[-1]
        if row[m] < 0:  # a dual simplex pivot
            tied.append(any(row[j] < 0 and cost[j] * row[c] == cost[c] * row[j]
                            for j in range(m) if j != c))
        return pivot(t, det, r, c)

    monkeypatch.setattr(exactla, "_pivot", spy)
    events = [set(s) for r in (3, 1, 4, 2) for s in itertools.combinations(range(5), r)]
    values = lp_minima(p, [indicator(5, a) for a in events])
    assert values == [max(Q(len(a)) / 6, 1 - Q(5 - len(a)) / 4) for a in events]
    assert any(tied)


@settings(max_examples=150, deadline=None)
@given(assessed_rows(), st.data())
def test_lp_minima_matches_lp_min(model, data):
    n, rows = model
    p = rows_hrep(n, rows)
    fs = data.draw(st.permutations([f for f, _ in rows] + [unit(n, x) for x in range(n)]))
    try:
        expected = [lp_min(p, f).value for f in fs]
    except EmptyPolytopeError:
        with pytest.raises(EmptyPolytopeError):
            lp_minima(p, fs)
        return
    assert lp_minima(p, fs) == expected


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
    # x >= c: the minimum is c . f when f >= 0, else unbounded below
    c, f = (vec(v) for v in drawn)
    n = len(c)
    p = HPolytope(n, tuple((unit(n, i), c[i]) for i in range(n)))
    if min(f) < 0:
        with pytest.raises(UnboundedLpError):
            lp_min(p, f)
    else:
        assert lp_min(p, f) == (dot(c, f), Vertex(c))


def test_unbounded_face_is_not_a_problem_for_pointed_sets():
    # quadrant: single vertex at the origin even though the set is unbounded
    p = HPolytope(2, ((unit(2, 0), 0), (unit(2, 1), 0)))
    vs = vertices_bruteforce(p)
    assert [v.point for v in vs] == [vec([0, 0])]


def test_oracle_guards():
    with pytest.raises(OracleGuardError):
        vertices_bruteforce(simplex(7))
    wide = HPolytope(
        3,
        tuple((unit(3, i % 3), -j) for j, i in enumerate(range(26))),
        ((ones(3), 1),),
    )
    with pytest.raises(OracleGuardError):
        vertices_bruteforce(wide)
    assert len(vertices_bruteforce(simplex(7), max_dim=7)) == 7


def test_every_vertex_has_full_rank_active_set():
    from credalfans.exactla import rank

    for v in vertices_bruteforce(PRI3):
        rows = PRI3.inequalities + PRI3.equalities
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
            A_ub=[[-float(a) for a in row] for row, _ in p.inequalities],
            b_ub=[-float(b) for _, b in p.inequalities],
            A_eq=[[1.0] * 4],
            b_eq=[1.0],
            bounds=[(None, None)] * 4,
            method="highs",
        )
        assert res.status == 0
        assert abs(res.fun - float(exact)) < 1e-9
