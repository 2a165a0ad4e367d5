"""Exact linear algebra kernels: elimination, solving, the simplex."""

import decimal
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cone_calculus import dot, ones, reference_simplex, scaled_inverse, solve_unique, unit
from credalfans import exactla
from credalfans.exactla import (
    LpUnbounded,
    _pivot,
    _scaled,
    format_rat,
    rank,
    rat,
    vec,
)

Q = rat


def rows(*rs):
    return [vec(r) for r in rs]


def solved(rows, w, costs, units):
    """(det, levels, cost, duals) off the final tableau of
    ``exactla._optimum``: a basic optimal x as {basic column: level} in row
    order, costs . x and the multipliers y, integers over det > 0."""
    t, det, basis = exactla._optimum(rows, w, costs, units)
    m = len(costs)
    return det, {b: row[m] for row, b in zip(t, basis)}, -t[-1][m], tuple(-a for a in t[-1][m + 1:])


def rational_simplex(cols, target, costs):
    """The kernel on rational columns around a unit start, scaled as a
    positive scale leaves its choices: each column j with its cost by its
    own s_j, the common multiple of the column's denominators (1 on the
    unit columns and on the +- pair of 1, which come last), the costs by
    one common d and the target by e. The result is read back over one s =
    det d e, as (s, levels, cost, duals): x_j = s_j x'_j / e for the
    kernel's x' = levels / det, and y = y' / d for its y' = duals / det."""
    n = len(target)
    assert list(cols[-2:]) == [ones(n), tuple(-a for a in ones(n))]
    units = [next((j for j, col in enumerate(cols) if col == unit(n, y)), None) for y in range(n)]
    d, costs = _scaled(vec(costs))
    scale, int_cols = zip(*(_scaled(vec(col)) for col in cols))
    e, g = _scaled(vec(target))
    det, levels, cost, duals = solved(list(zip(*int_cols)), g,
                                      [s * a for s, a in zip(scale, costs)], units)
    return (det * d * e, {j: v * scale[j] * d for j, v in levels.items()}, cost,
            tuple(a * e for a in duals))


# ---------------------------------------------------------------- basics


def test_rat_coercion_and_format():
    assert Q("3/6") == Q(1) / 2
    assert Q("  -3/4 ") == -Q(3) / 4
    assert Q(Fraction(2, 8)) == Q("1/4")
    for x in (3, "-3/4", Fraction(1, 3)):
        assert type(Q(x)) is Fraction
    assert format_rat(Q("4/2")) == "2"
    assert format_rat(Q("-10/4")) == "-5/2"
    with pytest.raises(TypeError):
        Q(0.5)
    with pytest.raises(TypeError):
        Q(True)
    with pytest.raises(TypeError):
        Q(decimal.Decimal("0.5"))


def test_vector_helpers():
    # unit, ones and dot are the tests' own (cone_calculus); vec is the package's
    assert unit(3, 1) == vec([0, 1, 0])
    assert ones(2) == vec([1, 1])
    assert dot(vec([1, 2]), vec([3, "1/2"])) == Q(4)
    v = vec([1, "1/2"])
    assert vec(v) is v  # a tuple of Fractions comes back as it is
    assert vec(list(v)) == v and vec(list(v)) is not v
    with pytest.raises(TypeError):
        vec((Q(1), 0.5))


# ---------------------------------------------------------------- rank


def test_rank_event_indicators_with_constant():
    # 1_{x1,x2}, 1_{x2,x3}, 1_{x1,x3}, 1_Omega on a 4-outcome space
    m = rows([1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1])
    assert rank(m) == 4


def test_pivot_checks_that_every_division_is_exact():
    t = [[2, 1], [1, 1]]
    assert _pivot(t, 1, 0, 0) == 2
    assert t == [[2, 1], [0, 1]]
    with pytest.raises(AssertionError):  # det 3 does not divide 2 * 1 - 1 * 1
        _pivot([[2, 1], [1, 1]], 3, 0, 0)


def test_rank_degenerate_cases():
    assert rank([]) == 0
    assert rank(rows([0, 0])) == 0
    assert rank(rows([1, 2], [2, 4], [3, 6])) == 1
    assert rank(rows(["1/2", "1/3"], [3, 2])) == 1


# ---------------------------------------------------------------- solving
# solve_unique is the tests' own (cone_calculus); it runs the package's
# integer elimination, exactla._eliminate, which these cases exercise.


def test_solve_square_unique():
    a = rows([2, 1], [1, -1])
    x = solve_unique(a, vec([4, -1]))
    assert x == vec([1, 2])


def test_solve_square_singular_is_none():
    a = rows([1, 2], [2, 4])
    assert solve_unique(a, vec([1, 2])) is None  # consistent but not unique
    assert solve_unique(a, vec([1, 3])) is None  # inconsistent


def test_solve_unique_overdetermined():
    a = rows([1, 0], [0, 1], [1, 1])
    assert solve_unique(a, vec([2, 3, 5])) == vec([2, 3])
    assert solve_unique(a, vec([2, 3, 6])) is None


def test_the_reference_kernel_refuses_columns_without_the_start():
    # the package's kernel takes its start from the record, which refuses a
    # set without a row on some p(y) (test_polytope); the reference kernel
    # searches arbitrary columns for it and refuses, for (columns, first
    # target): no columns; units but no multiple of 1; 1 only on the side
    # opposite the target's least entry; no e_1 although y0 == 0; and no
    # target coordinates at all
    for cols, target in (([], [1, 0, 0]), ([[1, 0], [0, 1]], [1, 2]),
                         ([[0, 1], [1, 1]], [-1, 0]), ([[1, 0], [1, 1], [-1, -1]], [1, 2]),
                         ([], [])):
        with pytest.raises(ValueError, match="start basis"):
            reference_simplex(cols, target, [0] * len(cols))
    # y0 == 1 needs no e_1: the same columns hold the start for (2, 1), and
    # the kernel reads no unit column at y0
    cols = rows([1, 0], [1, 1], [-1, -1])
    s, levels, _, _ = rational_simplex(cols, vec([2, 1]), [0] * 3)
    assert {j: Fraction(v, s) for j, v in levels.items()} == {1: 1, 0: 1}
    assert solved([(1, 1, -1), (0, 1, -1)], (2, 1), [0] * 3, (0, None)) == (
        1, {0: 1, 1: 1}, 0, (0, 0))


def test_simplex_phase_two():
    # the dual of min p . (1, 3) over p >= 0, p . (1, 3) >= 2 and p . 1 == 1:
    # from the start {1, e_1} (levels 1 and 2, cost -1) one pivot brings in
    # the assessment's column, degenerate; the value is 2 at p = (1/2, 1/2)
    cols = rows([1, 0], [0, 1], [1, 3], [1, 1], [-1, -1])
    pivots, real = [], exactla._pivot
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_pivot", lambda *args: pivots.append(args[3]) or real(*args))
        s, levels, cost, duals = rational_simplex(cols, vec([1, 3]), vec([0, 0, -2, -1, 1]))
    assert pivots == [2]
    assert {j: Fraction(v, s) for j, v in levels.items()} == {3: 0, 2: 1}
    assert Fraction(cost, s) == -2
    assert tuple(Fraction(a, s) for a in duals) == (Q("-1/2"), Q("-1/2"))


def test_simplex_infeasible_and_unbounded():
    # p(0), p(1) >= 2/3 with p . 1 == 1 is empty: the dual cost falls along
    # the +- pair of 1 from the start, whatever the target
    cols = rows([1, 0], [0, 1], [1, 1], [-1, -1])
    with pytest.raises(LpUnbounded):
        rational_simplex(cols, vec([1, 0]), vec(["-2/3", "-2/3", -1, 1]))


# ---------------------------------------------------------------- properties

small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).map(lambda f: rat(Fraction(f)))


def _matrix(n, m):
    return st.lists(
        st.lists(small_rats, min_size=m, max_size=m), min_size=n, max_size=n
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: _matrix(n, n)), st.data())
def test_solve_square_reconstructs(m, data):
    n = len(m)
    x = data.draw(st.lists(small_rats, min_size=n, max_size=n))
    b = [dot(row, x) for row in m]
    got = solve_unique(m, b)
    if rank(m) == n:
        assert got is not None
        assert [dot(row, got) for row in m] == b
        assert got == tuple(x)
    else:
        assert got is None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: _matrix(n, n + 1)))
def test_rank_transpose_invariant(m):
    t = [[row[j] for row in m] for j in range(len(m[0]))]
    r = rank(m)
    assert r == rank(t)
    assert r <= min(len(m), len(m[0]))


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@st.composite
def int_square_matrices(draw):
    """n x n integer matrices, n <= 6, entries in [-5, 5]. Some have a zero
    leading entry, so the first pivot needs a row swap; some have a row
    that repeats, negates or zeroes another, so they are singular."""
    n = draw(st.integers(1, 6))
    m = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if draw(st.booleans()):
        m[0][0] = 0
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-1, 0, 1)))
        m[i] = [c * a for a in m[j]]
    return m


@settings(max_examples=150, deadline=None)
@given(int_square_matrices())
@example([[0, 1], [1, 0]])  # a row swap, determinant -1
@example([[0, 0, 2], [0, -3, 0], [5, 0, 0]])  # two swaps, determinant 30
@example([[2, 4], [1, 2]])  # singular
def test_scaled_inverse_contract(m):
    # None exactly for a singular matrix, else integer rows R with
    # R . m == d I for one d > 0, whatever the sign of the determinant
    n = len(m)
    r = scaled_inverse(m)
    if _leibniz_det(m) == 0:
        assert r is None
        return
    assert all(type(a) is int for row in r for a in row)
    prod = [[sum(r[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    d = prod[0][0]
    assert d > 0
    assert prod == [[d * (i == j) for j in range(n)] for i in range(n)]


def _gauss(columns, target):
    """Unique x with sum x_j columns[j] == target, by plain Gaussian
    elimination over fractions; None when the columns are dependent or the
    system is inconsistent."""
    k = len(columns)
    a = [[Fraction(c[i]) for c in columns] + [Fraction(b)] for i, b in enumerate(target)]
    for j in range(k):
        p = next((i for i in range(j, len(a)) if a[i][j] != 0), None)
        if p is None:
            return None
        a[j], a[p] = a[p], a[j]
        a[j] = [v / a[j][j] for v in a[j]]
        for i in range(len(a)):
            if i != j and a[i][j] != 0:
                f = a[i][j]
                a[i] = [v - f * w for v, w in zip(a[i], a[j])]
    if any(row[k] != 0 for row in a[k:]):
        return None
    return [row[k] for row in a[:k]]


def _min_over_bases(columns, target, costs):
    """Minimum cost over the basic feasible solutions, found by solving
    every subset of at most len(target) columns; None when none is
    feasible."""
    best = None
    for size in range(len(target) + 1):
        for subset in itertools.combinations(range(len(columns)), size):
            x = _gauss([columns[j] for j in subset], target)
            if x is not None and all(v >= 0 for v in x):
                cost = sum((costs[j] * v for j, v in zip(subset, x)), Fraction(0))
                best = cost if best is None else min(best, cost)
    return best


def _unit_start(data, n):
    """Columns drawn around a unit start: every unit vector and up to three
    drawn columns, shuffled, then the +- pair of 1, last."""
    cols = [unit(n, y) for y in range(n)]
    cols += data.draw(st.lists(st.lists(small_rats, min_size=n, max_size=n).map(vec), max_size=3))
    return data.draw(st.permutations(cols)) + [ones(n), tuple(-a for a in ones(n))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_simplex_each_from_the_simplex_start_matches_basis_enumeration(data):
    # the kernel, exactla._optimum, on every unit vector and drawn columns,
    # shuffled, then the +- pair of 1: phase 2 alone (one _to_optimum run
    # per target) from the start written down. Costs y . column + a
    # slack: a nonnegative one keeps the dual
    # feasible, so the LP is bounded; a drawn one may let the cost fall
    # along a ray r >= 0 with sum r_j columns[j] == 0 (the dual of an empty
    # credal set), found by basis enumeration on the rays normalised to
    # sum r_j == 1.
    n = data.draw(st.integers(1, 3))
    cols = _unit_start(data, n)
    y = data.draw(st.lists(small_rats, min_size=n, max_size=n))
    slack = data.draw(st.sampled_from((small_rats.filter(lambda a: a >= 0), small_rats)))
    costs = [dot(y, col) + data.draw(slack) for col in cols]
    targets = data.draw(st.lists(st.lists(small_rats, min_size=n, max_size=n), min_size=1, max_size=3))
    unbounded = _min_over_bases([[*col, 1] for col in cols], [0] * n + [1], costs) < 0
    runs, real = [], exactla._to_optimum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_to_optimum", lambda *args: runs.append(args) or real(*args))
        if unbounded:
            with pytest.raises(LpUnbounded):
                rational_simplex(cols, targets[0], costs)
        else:
            results = [rational_simplex(cols, target, costs) for target in targets]
    if unbounded:
        assert len(runs) == 1
        return
    assert len(runs) == len(targets)
    for target, (s, levels, cost, duals) in zip(targets, results):
        assert Q(cost) / s == _min_over_bases(cols, target, costs)
        assert [sum(cols[j][i] * v for j, v in levels.items()) for i in range(n)] == [
            s * a for a in target]
        _assert_optimal_duals(cols, target, costs, s, levels, cost, duals)


def test_simplex_start_det_is_its_basis_determinant():
    # w = (1, 2): y0 = 0 and the basis {1, e_1}, of determinant 1, is
    # already optimal at zero cost: levels 1 and 1, no pivot. The reference
    # kernel finds the start on scaled columns too: {5 . 1, 3 e_1}, of
    # |determinant| 15, levels 1/5 and 1/3
    assert solved([(1, 0, 1, -1), (0, 1, 1, -1)], (1, 2), [0] * 4, (0, 1)) == (
        1, {2: 1, 1: 1}, 0, (0, 0))
    cols = [(2, 0), (0, 3), (5, 5), (-5, -5)]
    assert reference_simplex(cols, (1, 2), [0] * 4) == (15, {2: 3, 1: 5}, 0, (0, 0))


def _assert_optimal_duals(cols, target, costs, s, levels, cost, duals):
    """duals / s is dual feasible (y . column <= cost), tight on every basic
    column, and its value y . target is the optimal cost (strong duality)."""
    y = [Q(a) / s for a in duals]
    assert all(dot(y, col) <= c for col, c in zip(cols, costs))
    assert all(dot(y, cols[j]) == costs[j] for j in levels)
    assert dot(y, target) == Q(cost) / s
