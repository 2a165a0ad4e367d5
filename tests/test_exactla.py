"""Exact linear algebra kernels: elimination, solving, the simplex."""

import decimal
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credalfans.exactla import (
    LpInfeasible,
    LpUnbounded,
    _pivot,
    dot,
    format_rat,
    is_multiple,
    ones,
    rank,
    rat,
    scaled_inverse,
    simplex,
    simplex_each,
    solve_unique,
    unit,
    vec,
    vneg,
    zeros,
)

Q = rat


def rows(*rs):
    return [vec(r) for r in rs]


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
    assert zeros(3) == vec([0, 0, 0])
    assert unit(3, 1) == vec([0, 1, 0])
    assert ones(2) == vec([1, 1])
    assert dot(vec([1, 2]), vec([3, "1/2"])) == Q(4)
    assert vneg(vec([1, -1])) == vec([-1, 1])
    assert is_multiple(vec([2, 2, 2]), ones(3))
    assert is_multiple(vec([-3, -3]), ones(2))
    assert is_multiple(zeros(2), ones(2))
    assert not is_multiple(vec([1, 2]), ones(2))
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


def test_simplex_phase_one_trivial_and_empty():
    assert simplex([], zeros(3))[0] == []
    with pytest.raises(LpInfeasible):
        simplex([], vec([1, 0, 0]))
    x, _ = simplex([vec([1, 0]), vec([0, 1])], zeros(2))
    assert x == [Q(0), Q(0)]


def test_simplex_phase_two():
    # min x0 + 2 x1 + 3 x2 with x0 + x1 + x2 == 1 and x1 - x2 == 0
    cols = [vec([1, 0]), vec([1, 1]), vec([1, -1])]
    x, basis = simplex(cols, vec([1, 0]), vec([1, 2, 3]))
    assert x == [Q(1), Q(0), Q(0)]
    assert sorted(basis) in ([0, 1], [0, 2])
    # without costs the same call is phase 1: any feasible basic x
    x, _ = simplex(cols, vec([1, 0]))
    assert [dot([c[i] for c in cols], x) for i in range(2)] == [1, 0]


def test_simplex_drops_a_dependent_row():
    # the third row is the sum of the first two: two basic columns
    cols = [vec([1, 0, 1]), vec([0, 1, 1]), vec([1, 1, 2])]
    x, basis = simplex(cols, vec([1, 2, 3]), vec([1, 1, 1]))
    assert len(basis) == 2
    assert x == [Q(0), Q(1), Q(1)]


def test_simplex_infeasible_and_unbounded():
    with pytest.raises(LpInfeasible):
        simplex([vec([1, 1])], vec([1, 2]), vec([0]))
    # x0 == x1 leaves -x0 unbounded below
    with pytest.raises(LpUnbounded):
        simplex([vec([1]), vec([-1])], vec([0]), vec([-1, 0]))


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_simplex_finds_planted_combination(data):
    # phase 1 recovers some x >= 0 over the generators and a +- pair for
    # the constant direction whenever a planted combination exists
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, 3))
    gens = [
        vec(data.draw(st.lists(small_rats, min_size=n, max_size=n)))
        for _ in range(k)
    ]
    gens = [g for g in gens if any(a != 0 for a in g)]
    if not gens:
        return
    alphas = data.draw(
        st.lists(
            st.fractions(min_value=0, max_value=3, max_denominator=4),
            min_size=len(gens),
            max_size=len(gens),
        )
    )
    beta = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
    cols = gens + [ones(n), vneg(ones(n))]
    planted = [rat(Fraction(a)) for a in alphas] + [rat(Fraction(beta)), Q(0)]
    v = _combine(cols, planted)
    x, _ = simplex(cols, v)
    assert all(a >= 0 for a in x)
    assert _combine(cols, x) == v


def _combine(columns, coeffs):
    """sum coeffs_j columns[j]."""
    out = zeros(len(columns[0]))
    for c, col in zip(coeffs, columns):
        out = tuple(a + c * b for a, b in zip(out, col))
    return out


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_simplex_matches_basis_enumeration(data):
    # at most 3 drawn rows plus an all-ones row, which bounds the LP
    n = data.draw(st.integers(0, 3))
    m = data.draw(st.integers(1, 6))
    cols = [data.draw(st.lists(small_rats, min_size=n, max_size=n)) + [rat(1)] for _ in range(m)]
    if data.draw(st.booleans()):  # planted feasible point
        x0 = data.draw(st.lists(small_rats.filter(lambda a: a >= 0), min_size=m, max_size=m))
        target = [dot([c[i] for c in cols], x0) for i in range(n + 1)]
    else:
        target = data.draw(st.lists(small_rats, min_size=n + 1, max_size=n + 1))
    costs = data.draw(st.lists(small_rats, min_size=m, max_size=m))
    expected = _min_over_bases(cols, target, costs)
    if expected is None:
        with pytest.raises(LpInfeasible):
            simplex(cols, target, costs)
        return
    x, basis = simplex(cols, target, costs)
    assert all(a >= 0 for a in x)
    assert [dot([c[i] for c in cols], x) for i in range(n + 1)] == list(target)
    assert dot(costs, x) == expected
    assert all(x[j] == 0 for j in range(m) if j not in basis)


def test_simplex_each_dependent_row():
    # one column (1, 1): the second row is dependent, so a later target off
    # the line x0 == x1 fails there whatever the sign of its right-hand side
    col = [vec([1, 1])]
    assert simplex_each(col, [vec([1, 1]), vec([3, 3])], [1]) == [({0: 1}, 1), ({0: 3}, 3)]
    for off in ([1, 2], [2, 1]):
        with pytest.raises(LpInfeasible):
            simplex_each(col, [vec([1, 1]), vec(off)], [1])

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_simplex_each_matches_basis_enumeration(data):
    # one tableau for several targets: each cost is that target's minimum,
    # and a target no nonnegative combination meets raises, dependent rows
    # (columns that do not span) included
    n = data.draw(st.integers(0, 3))
    m = data.draw(st.integers(1, 6))
    cols = [data.draw(st.lists(small_rats, min_size=n, max_size=n)) + [rat(1)] for _ in range(m)]
    targets = []
    for _ in range(data.draw(st.integers(1, 4))):
        x0 = data.draw(st.lists(small_rats.filter(lambda a: a >= 0), min_size=m, max_size=m))
        targets.append([dot([c[i] for c in cols], x0) for i in range(n + 1)])
    if data.draw(st.booleans()):
        targets.insert(data.draw(st.integers(0, len(targets))),
                       data.draw(st.lists(small_rats, min_size=n + 1, max_size=n + 1)))
    costs = data.draw(st.lists(small_rats, min_size=m, max_size=m))
    expected = [_min_over_bases(cols, target, costs) for target in targets]
    if None in expected:
        with pytest.raises(LpInfeasible):
            simplex_each(cols, targets, costs)
        return
    solved = simplex_each(cols, targets, costs)
    assert [cost for _, cost in solved] == expected
    for target, (levels, cost) in zip(targets, solved):
        assert all(v >= 0 for v in levels.values())
        assert [sum(cols[j][i] * v for j, v in levels.items()) for i in range(n + 1)] == target
        assert sum(costs[j] * v for j, v in levels.items()) == cost
