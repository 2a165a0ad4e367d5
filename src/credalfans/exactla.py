"""Exact linear algebra over rationals.

Vectors are tuples of backend rationals. Elimination is fraction-free
(Bareiss) on denominator-cleared integer rows, so intermediate growth stays
polynomial and every division is exact. Cone feasibility is an exact
phase-1 simplex with Bland's rule.
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


def solve_nonneg(columns, target):
    """Exact x >= 0 with sum x_j columns[j] == target, or None if infeasible.

    Phase-1 simplex, Bland's rule (anti-cycling), all arithmetic rational.
    """
    target = vec(target)
    n = len(target)
    m = len(columns)
    tab = []
    for i in range(n):
        row = [rat(col[i]) for col in columns]
        b = target[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        row += [ONE if j == i else ZERO for j in range(n)]
        row.append(b)
        tab.append(row)
    ncols = m + n
    basis = list(range(m, ncols))
    in_basis = set(basis)
    while True:
        art_rows = [i for i in range(n) if basis[i] >= m]
        enter = None
        for j in range(ncols):
            if j in in_basis:
                continue
            cost = ONE if j >= m else ZERO
            red = cost - sum((tab[i][j] for i in art_rows), ZERO)
            if red < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(n):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        assert leave is not None, "phase-1 objective cannot be unbounded"
        pv = tab[leave][enter]
        tab[leave] = [a / pv for a in tab[leave]]
        for i in range(n):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        in_basis.discard(basis[leave])
        basis[leave] = enter
        in_basis.add(enter)
    infeas = sum((tab[i][-1] for i in range(n) if basis[i] >= m), ZERO)
    if infeas != 0:
        return None
    x = [ZERO] * m
    for i, b in enumerate(basis):
        if b < m:
            x[b] = tab[i][-1]
    return x


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
