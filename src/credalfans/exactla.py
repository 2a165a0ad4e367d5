"""Exact linear algebra over rationals.

Every kernel in this package runs on exact rationals, and nothing downstream
may introduce floating point: the one number type is ``fractions.Fraction``,
and ``rat`` is the only way in. It refuses floats (and bools), so an inexact
value fails loudly instead of rounding silently.

Vectors are tuples of Fractions. ``rank``, ``solve_unique``,
``scaled_inverse`` and the one LP kernel (``simplex_each``: one tableau for
many right-hand sides, ``simplex`` its one-target case) share one
fraction-free Gauss-Jordan pivot (``_pivot``, Edmonds' integer-preserving
elimination, as in lrs) on denominator-cleared integer rows: every division
is exact, intermediate growth stays polynomial, and a Fraction is built only
when a result leaves the kernel. ``scaled_inverse`` returns integers, for
callers that read only the signs and ratios of an inverse's rows.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

__all__ = [
    "rat",
    "format_rat",
    "DigitLimitError",
    "vec",
    "zeros",
    "unit",
    "ones",
    "indicator",
    "dot",
    "vneg",
    "is_multiple",
    "rank",
    "solve_unique",
    "scaled_inverse",
    "LpInfeasible",
    "LpUnbounded",
    "simplex",
    "simplex_each",
]


def rat(value) -> Fraction:
    """Coerce ``value`` to a Fraction.

    Accepts Fractions, ints, and strings like ``"-3/4"`` or ``"7"``. Floats
    (and Decimals) are rejected: silently admitting them would break the
    exactness contract.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not an exact rational: {value!r} of {type(value).__name__}")
    return Fraction(value)


class DigitLimitError(ValueError):
    """A rational has more digits than Python's int-to-str limit prints."""


def format_rat(value) -> str:
    """Canonical string form: ``"p/q"`` in lowest terms, ``"p"`` if integral.
    Raises DigitLimitError past Python's int-to-str digit limit."""
    num, den = value.numerator, value.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise DigitLimitError(
            f"result too large to print: more than {sys.get_int_max_str_digits()} "
            "digits in its numerator or denominator") from None


ZERO = rat(0)
ONE = rat(1)


class Record:
    """Validated value class with no generated code: equality (within a class),
    hashing and repr read the __slots__ not starting with "_" (caches)."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"


def vec(values) -> tuple:
    """values as a tuple of Fractions; one that already is comes back as is."""
    if type(values) is tuple and all(type(a) is Fraction for a in values):
        return values
    return tuple(rat(v) for v in values)


def zeros(n: int) -> tuple:
    return (ZERO,) * n


def unit(n: int, i: int) -> tuple:
    assert 0 <= i < n
    return tuple(ONE if j == i else ZERO for j in range(n))


def ones(n: int) -> tuple:
    return (ONE,) * n


def indicator(n: int, members) -> tuple:
    """0/1 vector of an event given as a set of outcome indices."""
    return tuple(ONE if i in members else ZERO for i in range(n))


def dot(u, v):
    assert len(u) == len(v)
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vneg(u) -> tuple:
    return tuple(-a for a in u)


def is_multiple(u, v) -> bool:
    """True iff u == c*v for some scalar c (v must be nonzero)."""
    assert len(u) == len(v)
    lead = next((i for i, a in enumerate(v) if a != 0), None)
    assert lead is not None, "reference vector is zero"
    c = rat(u[lead]) / v[lead]
    return all(rat(a) == c * b for a, b in zip(u, v))


def _inexact(x: int, det: int):
    raise AssertionError(f"pivot division {x} / {det} is not exact")


def _scaled(v) -> tuple:
    """(d, d v) for the least common multiple d of v's denominators: d v is
    integer, with the signs and ratios of v."""
    d = math.lcm(*(a.denominator for a in v))
    return d, tuple(a.numerator * (d // a.denominator) for a in v)


def _int_rows(rows) -> list[list[int]]:
    """Clear denominators with one common multiplier. Scaling the whole
    matrix by a positive number keeps its rank, its solutions, every sign
    and every ratio, so the simplex makes the same choices on the result."""
    rows = [[rat(a) for a in row] for row in rows]
    entries = iter(_scaled([a for row in rows for a in row])[1])
    return [[next(entries) for _ in row] for row in rows]


def _pivot(t: list[list[int]], det: int, r: int, c: int) -> int:
    """Integer-preserving Gauss-Jordan pivot on t[r][c] (Edmonds): every
    row holds det times its rational values, before and after, and the new
    det is returned. Each entry of another row becomes
    (p * a - f * b) / det, an exact division, checked entry by entry
    (_inexact otherwise). A negative pivot row is negated first, so det
    stays positive and signs read off the integers."""
    if t[r][c] < 0:
        t[r] = [-a for a in t[r]]
    pr = t[r]
    p = pr[c]
    for i, row in enumerate(t):
        if i != r:
            f = row[c]
            t[i] = [x // det if not (x := p * a - f * b) % det else _inexact(x, det)
                    for a, b in zip(row, pr)]
    return p


def _eliminate(t: list[list[int]], ncols: int) -> tuple[int, int]:
    """Gauss-Jordan on columns 0..ncols-1 of t, in place: each pivot is the
    first nonzero entry outside the pivot rows, swapped up to follow them.
    Returns (det, rank); if rank == ncols, column k is zero but in row k."""
    det = 1
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(t)) if t[i][c] != 0), None)
        if p is not None:
            t[r], t[p] = t[p], t[r]
            det = _pivot(t, det, r, c)
            r += 1
    return det, r


def rank(rows) -> int:
    rows = list(rows)
    if not rows:
        return 0
    return _eliminate(_int_rows(rows), len(rows[0]))[1]


def solve_unique(rows, rhs):
    """Unique exact solution of (possibly overdetermined) rows . x = rhs.

    Returns the solution tuple, or None when the system is inconsistent or
    underdetermined.
    """
    rows = list(rows)
    rhs = list(rhs)
    assert rows and len(rows) == len(rhs)
    n = len(rows[0])
    t = _int_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    det, r = _eliminate(t, n)
    if r < n or any(row[n] != 0 for row in t[n:]):
        return None  # rank-deficient, or a nonzero rhs left over: inconsistent
    return tuple(Fraction(row[n], det) for row in t[:n])


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


class LpInfeasible(ArithmeticError):
    """No nonnegative combination of the columns meets the target."""


class LpUnbounded(ArithmeticError):
    """The cost falls without bound over the nonnegative combinations."""


def _to_optimum(t: list[list[int]], det: int, basis: list, m: int) -> int:
    """Bland's rule on the real columns 0..m-1 until no reduced cost in the
    cost row t[-1] is negative; returns the final det. Entry m of a row is
    its right-hand side (the cost row's is minus the cost). Ratios compare
    by cross-multiplication. Raises LpUnbounded when an entering column has
    no positive entry."""
    while True:
        enter = next((j for j in range(m) if t[-1][j] < 0), None)
        if enter is None:
            return det
        leave = None
        for i, row in enumerate(t[:-1]):
            if row[enter] > 0:
                if leave is not None:  # sign of row's ratio minus the best so far
                    d = row[m] * t[leave][enter] - t[leave][m] * row[enter]
                if leave is None or d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise LpUnbounded("the cost is unbounded below")
        det = _pivot(t, det, leave, enter)
        basis[leave] = enter


def _restore(t: list[list[int]], det: int, basis: list, m: int) -> int:
    """The dual simplex under Bland's rule (Bland 1977) until no right-hand
    side is negative, or nonzero on a dependent row: leave on such a row of
    least basic index, enter on the least ratio of reduced cost to |entry|
    over its negative entries, ties to the least column; else LpInfeasible."""
    while True:
        rows = [i for i, b in enumerate(basis) if t[i][m] < 0 or b >= m and t[i][m]]
        if not rows:
            return det
        leave = min(rows, key=basis.__getitem__)
        row, cost = t[leave], t[-1]
        enter = None
        for j in range(m):  # cost[j] / -row[j] < cost[enter] / -row[enter]
            if row[j] < 0 and (enter is None or cost[j] * row[enter] > cost[enter] * row[j]):
                enter = j
        if enter is None:
            raise LpInfeasible("no nonnegative combination of the columns meets the target")
        det = _pivot(t, det, leave, enter)
        basis[leave] = enter


def simplex_each(columns, targets, costs=None) -> list:
    """Exact minimum of costs . x over x >= 0 with sum x_j columns[j] ==
    target, for each of a nonempty list of targets, on one dense integer
    tableau (``_pivot``) with the cost as its last row (all costs zero when
    none are given): the one LP kernel.

    The first target runs two phases under Bland's rule: phase 1 (else
    LpInfeasible) pivots the artificials out where a real column allows,
    leaving the rest as dependent rows, and phase 2 may raise LpUnbounded.
    A target is only a right-hand side, so each further one is a
    ``_restore`` from the last optimum, its right-hand sides the artificial
    block (det times the inverse basis, kept only then) times the target.
    Returns (levels, cost) per target: a basic optimal x as {basic column:
    value} in tableau row order (fewer entries than rows exactly when the
    columns do not span), and costs . x off the cost row. ValueError when
    the columns and targets differ in length.
    """
    n, m = len(targets[0]), len(columns)
    if any(len(v) != n for v in (*columns, *targets)):
        raise ValueError("columns and targets differ in length")
    scaled = _int_rows([[col[i] for col in columns] + [g[i] for g in targets] for i in range(n)])
    block = n if len(targets) > 1 else 0  # the artificial block, read only by further targets
    t = [row[:m + 1] + [int(i == j) for j in range(block)] for i, row in enumerate(scaled)]
    t = [[-a for a in row] if row[m] < 0 else row for row in t]
    t.append([-sum(row[j] for row in t) for j in range(m + 1 + block)])
    basis = list(range(m, m + n))  # the artificial of row i has index m + i
    det = _to_optimum(t, 1, basis, m)
    if t[n][m] != 0:
        raise LpInfeasible("no nonnegative combination of the columns meets the target")
    for i in range(n):  # artificials still basic are at level zero
        if basis[i] >= m:
            j = next((j for j in range(m) if t[i][j] != 0), None)
            if j is not None:
                det = _pivot(t, det, i, j)
                basis[i] = j
    d, c = _scaled(zeros(m) if costs is None else vec(costs))
    # the cost row in the current basis: det times the reduced costs
    t[n] = [det * a for a in c] + [0] * (block + 1)
    for row, b in zip(t, basis):
        if b < m and c[b] != 0:
            t[n] = [a - c[b] * v for a, v in zip(t[n], row)]
    det = _to_optimum(t, det, basis, m)
    solved = []
    for k in range(m, m + len(targets)):
        if k > m:  # a further target's right-hand sides
            for row in t:
                row[m] = sum(a * s[k] for a, s in zip(row[m + 1:], scaled))
            det = _restore(t, det, basis, m)
        solved.append(({b: Fraction(row[m], det) for row, b in zip(t, basis) if b < m},
                       Fraction(-t[n][m], det * d)))
    return solved


def simplex(columns, target, costs=None):
    """``simplex_each`` on one target, as (x, basis)."""
    ((levels, _),) = simplex_each(columns, [target], costs)
    return [levels.get(j, ZERO) for j in range(len(columns))], tuple(levels)
