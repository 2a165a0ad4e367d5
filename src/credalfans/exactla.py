"""Exact linear algebra over rationals.

Every kernel in this package runs on exact rationals, and nothing downstream
may introduce floating point: the one number type is ``fractions.Fraction``,
and ``rat`` is the only way in. It refuses floats (and bools), so an inexact
value fails loudly instead of rounding silently.

Vectors are tuples of Fractions; ``_scaled`` clears one vector's
denominators: a vertex set or a matrix is scaled a row at a time. ``rank``,
the vertex oracle's subset solves (``_eliminate``, from
``polytope.vertices_bruteforce``) and the one LP kernel share one
fraction-free Gauss-Jordan pivot (``_pivot``, Edmonds' integer-preserving
elimination, as in lrs): every division is exact and intermediate growth
stays polynomial; it divides only at det > 1 and writes into no row, so
tables may share the rows it leaves. The LP kernel takes integers, scaled by
its callers, and solves a credal set's dual alone: it starts at the
probability simplex's own basis, with no pivot, no phase 1 and no search for
it, on the unit columns and the +- pair of 1 its caller names (the record,
``polytope.HPolytope``, refuses a set without them). It is ``_optimum``, one
target per call, and it returns the final tableau itself, integers over one
det: its one caller, ``polytope._dual_tableau``, and the readers of its
tableau (``lp_min``, the walk's seed) build the Fractions they read.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import add, mul, sub

__all__ = [
    "rat",
    "format_rat",
    "DigitLimitError",
    "vec",
    "rank",
    "LpUnbounded",
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


def _inexact(x: int, det: int):
    raise AssertionError(f"pivot division {x} / {det} is not exact")


def _scaled(v) -> tuple:
    """(d, d v) for the least common multiple d of v's denominators: d v is
    integer, with the signs and ratios of v."""
    d = math.lcm(*(a.denominator for a in v))
    return d, tuple(a.numerator * (d // a.denominator) for a in v)


def _min_dot(rows, v):
    """min p . v over the points p given as their ``_scaled`` pairs (d, d p):
    v is scaled once, to (e, g), each point's g . (d p) taken over ints and
    the least s / d kept by cross-multiplication (s d' < s' d, as d, d' > 0).
    One Fraction is built, the result s / (d e)."""
    e, g = _scaled(v)
    s, d = None, 1
    for dp, row in rows:
        sp = sum(map(mul, g, row))
        if s is None or sp * d < s * dp:
            s, d = sp, dp
    return Fraction(s, d * e)


def _pivot(t: list[list[int]], det: int, r: int, c: int) -> int:
    """Integer-preserving Gauss-Jordan pivot on t[r][c] (Edmonds): every
    row holds det times its rational values, before and after, and the new
    det is returned. Each entry a of another row, f its entry in column c,
    becomes (p * a - f * b) / det for the pivot p, an exact division checked
    entry by entry (_inexact otherwise); at det = 1 there is none to check,
    and at p = 1 a row with f = +-1 is one subtraction or addition. A row
    with f = 0 at p = det is kept as it is. Each changed row is a new list:
    no row is written into, so copies of t may share the rows left. A
    negative pivot row is negated first, so det stays positive and signs
    read off the integers."""
    if t[r][c] < 0:
        t[r] = [-a for a in t[r]]
    pr = t[r]
    p = pr[c]
    for i, row in enumerate(t):
        f = row[c]
        if i != r and (f or p != det):  # else the pivot row, or one times p / det = 1
            t[i] = (list(map(sub if f > 0 else add, row, pr)) if p == det == 1 and f * f == 1
                    else [p * a - f * b for a, b in zip(row, pr)] if det == 1
                    else [x // det if not (x := p * a - f * b) % det else _inexact(x, det)
                          for a, b in zip(row, pr)])
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
    # a positive scale of a row keeps the rank: each row is scaled on its own
    return _eliminate([_scaled(vec(row))[1] for row in rows], len(rows[0]))[1]


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


def _optimum(rows, w, costs, units) -> tuple:
    """The one LP kernel: (t, det, basis) at the minimum of costs . x over x >= 0 with sum x_j
    columns[j] == w, on one dense integer tableau t (``_pivot``), the cost
    its last row. The columns come as the rows by coordinate (rows[i][j] is
    entry i of column j), integers scaled by the caller; a positive scale of
    a column with its cost, or of w, leaves every choice below the same.

    Hypothesis: the last two columns are the +- pair of 1, and column
    units[y] is e_y for each y but y0, the first least entry of w, as in
    every credal set's dual (``polytope.HPolytope``); the caller vouches
    for it. The start is the probability simplex's own basis, written down
    with no scan and no pivot: e_y for y != y0 and c 1 for y0, c = 1 if
    w_y0 > 0 else -1, so w = c w_y0 (c 1) + sum (w_y - w_y0) e_y is
    feasible and the start's det is 1. Phase 2 (Bland's rule) runs from
    there and may raise LpUnbounded. Row i of t is det times basis[i]'s
    coordinates of the m = len(costs) columns, its level at m and its row
    of the inverse after m; the cost row, det times the reduced costs,
    minus the cost and minus the multipliers y (y . columns[j] <= costs[j])."""
    n, m = len(rows), len(costs)
    y0 = w.index(min(w))
    r0, a0 = rows[y0], w[y0]
    c = 1 if a0 > 0 else -1
    basis = [*units]
    basis[y0] = m - 2 if c > 0 else m - 1
    # the start's rows over det 1: row y - row y0, its inverse block row
    # e_y - e_y0, for y != y0, and c (row y0), with c e_y0, at y0
    t = [[*map(sub, row, r0), a - a0, *(0,) * n] for row, a in zip(rows, w)]
    for y, row in enumerate(t):
        row[m + 1 + y], row[m + 1 + y0] = 1, -1
    t[y0] = [*(c * a for a in r0), c * a0, *(c * (i == y0) for i in range(n))]
    # the cost row in the start basis: the reduced costs
    t.append([*costs] + [0] * (n + 1))
    for row, b in zip(t, basis):
        if costs[b] != 0:
            t[n] = [a - costs[b] * v for a, v in zip(t[n], row)]
    det = _to_optimum(t, 1, basis, m)  # t and basis move to the optimum in place
    return t, det, basis
