"""Exact linear algebra over rationals.

Vectors are tuples of backend rationals. Elimination is fraction-free
(Bareiss) on denominator-cleared integer rows, so intermediate growth stays
polynomial and every division is exact. Linear programs, cone membership
among them, go through one exact two-phase simplex with Bland's rule
(``simplex``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._ratbackend import BACKEND, Rat, format_rat, rat

__all__ = [
    "BACKEND",
    "Rat",
    "rat",
    "format_rat",
    "vec",
    "zeros",
    "unit",
    "ones",
    "indicator",
    "dot",
    "vadd",
    "vsub",
    "vscale",
    "vneg",
    "is_multiple",
    "rank",
    "solve_unique",
    "LpInfeasible",
    "LpUnbounded",
    "simplex",
    "solve_nonneg",
    "SpanWitness",
    "in_nonneg_span",
]

ZERO = rat(0)
ONE = rat(1)


def vec(values) -> tuple:
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


def vadd(u, v) -> tuple:
    assert len(u) == len(v)
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v) -> tuple:
    assert len(u) == len(v)
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u) -> tuple:
    c = rat(c)
    return tuple(c * a for a in u)


def vneg(u) -> tuple:
    return tuple(-a for a in u)


def is_multiple(u, v) -> bool:
    """True iff u == c*v for some scalar c (v must be nonzero)."""
    assert len(u) == len(v)
    lead = next((i for i, a in enumerate(v) if a != 0), None)
    assert lead is not None, "reference vector is zero"
    c = rat(u[lead]) / v[lead]
    return all(rat(a) == c * b for a, b in zip(u, v))


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    assert r == 0
    return q


def _int_rows(rows) -> list[list[int]]:
    """Clear denominators row by row (row scaling preserves row space)."""
    out = []
    for row in rows:
        row = [rat(a) for a in row]
        mult = 1
        for a in row:
            d = int(a.denominator)
            g = math.gcd(mult, d)
            mult = mult // g * d
        out.append([int(a.numerator) * (mult // int(a.denominator)) for a in row])
    return out


def _echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free elimination. Returns (rows, pivot columns)."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        for i in range(r + 1, nr):
            mic = m[i][c]
            for j in range(c, nc):
                m[i][j] = _exact_div(pv * m[i][j] - mic * m[r][j], prev)
        prev = pv
        piv_cols.append(c)
        r += 1
    return m, piv_cols


def rank(rows) -> int:
    rows = list(rows)
    if not rows:
        return 0
    _, piv = _echelon(_int_rows(rows))
    return len(piv)


def solve_unique(rows, rhs):
    """Unique exact solution of (possibly overdetermined) rows . x = rhs.

    Returns the solution tuple, or None when the system is inconsistent or
    underdetermined.
    """
    rows = list(rows)
    rhs = list(rhs)
    assert rows and len(rows) == len(rhs)
    n = len(rows[0])
    aug = _int_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    m, piv = _echelon(aug)
    if n in piv:
        return None  # a pivot in the rhs column: inconsistent
    if len(piv) < n:
        return None  # rank-deficient: no unique solution
    x = [ZERO] * n
    for k in reversed(range(len(piv))):
        p = piv[k]
        row = m[k]
        acc = rat(row[n])
        for j in range(p + 1, n):
            acc -= row[j] * x[j]
        x[p] = acc / row[p]
    return tuple(x)


class LpInfeasible(ArithmeticError):
    """No nonnegative combination of the columns meets the target."""


class LpUnbounded(ArithmeticError):
    """The cost falls without bound over the nonnegative combinations."""


def _pivot(tab: list, obj: list, basis: list, r: int, j: int) -> None:
    """Make column j basic in row r: scale the row to a unit pivot and
    eliminate column j from every other row and from the cost row."""
    pv = tab[r][j]
    pr = tab[r] = [a / pv for a in tab[r]]
    nz = [k for k, a in enumerate(pr) if a != 0]
    for row in tab + [obj]:
        f = row[j]
        if f != 0 and row is not pr:
            for k in nz:
                row[k] -= f * pr[k]
    basis[r] = j


def _to_optimum(tab: list, obj: list, basis: list, m: int) -> bool:
    """Bland's rule on the real columns 0..m-1 until no reduced cost in obj
    is negative (True) or an entering column has no positive entry, so the
    cost is unbounded below (False). The last entry of every row is its
    right-hand side; obj's is minus the current cost."""
    while True:
        enter = next((j for j in range(m) if obj[j] < 0), None)
        if enter is None:
            return True
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[m] / a
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return False
        _pivot(tab, obj, basis, leave, enter)


def simplex(columns, target, costs=None):
    """Exact minimum of costs . x over x >= 0 with sum x_j columns[j] ==
    target: the one LP kernel, a dense rational tableau with Bland's rule
    (anti-cycling) in both phases.

    Phase 1 starts from one artificial column per row and drives their sum
    to zero, raising LpInfeasible when it cannot. An artificial still basic
    (at level zero) is then pivoted out on any real column with a nonzero
    entry in its row; a row with none is dependent and takes no further
    part. Phase 2 runs when costs are given and minimises costs . x from
    that basis, raising LpUnbounded when the cost falls without bound.

    Returns (x, basis): a basic optimal x (a basic feasible one without
    costs) and the indices of its basic columns in tableau row order. The
    basic columns are linearly independent and span the columns, so there
    are fewer of them than rows exactly when the columns do not span.
    """
    target = vec(target)
    n, m = len(target), len(columns)
    tab = []
    for i, b in enumerate(target):
        row = [rat(col[i]) for col in columns] + [b]
        tab.append([-a for a in row] if b < 0 else row)
    basis = list(range(m, m + n))  # the artificial of row i has index m + i
    obj = [-sum((row[j] for row in tab), ZERO) for j in range(m + 1)]
    _to_optimum(tab, obj, basis, m)
    if obj[m] != 0:
        raise LpInfeasible("no nonnegative combination of the columns meets the target")
    for i in range(n):  # artificials still basic are at level zero
        if basis[i] >= m:
            j = next((j for j in range(m) if tab[i][j] != 0), None)
            if j is not None:
                _pivot(tab, obj, basis, i, j)
    if costs is not None:
        costs = vec(costs)
        obj = list(costs) + [ZERO]
        for row, b in zip(tab, basis):
            if b < m and costs[b] != 0:
                obj = [a - costs[b] * t for a, t in zip(obj, row)]
        if not _to_optimum(tab, obj, basis, m):
            raise LpUnbounded("the cost is unbounded below")
    x = [ZERO] * m
    for row, b in zip(tab, basis):
        if b < m:
            x[b] = row[m]
    return x, tuple(b for b in basis if b < m)


def solve_nonneg(columns, target):
    """Exact x >= 0 with sum x_j columns[j] == target, or None if
    infeasible: phase 1 of ``simplex``."""
    try:
        return simplex(columns, target)[0]
    except LpInfeasible:
        return None


@dataclass(frozen=True)
class SpanWitness:
    """Certificate for conic membership: v == sum coeffs_i generators_i
    + sum lineality_coeffs_j lineality_j with coeffs >= 0 (lineality
    coefficients unrestricted)."""

    coeffs: tuple
    lineality_coeffs: tuple


def in_nonneg_span(generators, lineality, v):
    """Witness that v lies in cone(generators) + span(lineality), else None."""
    generators = [vec(g) for g in generators]
    lineality = [vec(l) for l in lineality]
    v = vec(v)
    cols = generators + lineality + [vneg(l) for l in lineality]
    x = solve_nonneg(cols, v)
    if x is None:
        return None
    k = len(generators)
    m = len(lineality)
    alpha = tuple(x[:k])
    beta = tuple(x[k + j] - x[k + m + j] for j in range(m))
    return SpanWitness(alpha, beta)
