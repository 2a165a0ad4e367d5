"""Credal polytopes, the brute-force vertex oracle and the exact LP.

Every polytope of the package is a credal set, one ``HPolytope`` record
built once per model (``credal.build_credal_hrep``, ``pri.pri_hrep``):
rows p . f >= b on primitive integer normals f, a row on each p(y), the
bounds over one denominator, and p . 1 = 1 implicit. The vertex oracle
solves every dim - 1 rows with p . 1 = 1 by subset search, on the record's
integers through ``exactla._eliminate``; it is deliberately simple and
exact, guarded to small instances, and the ground truth the structured
fast paths are tested against. Every LP is one run of the kernel on the
dual, ``_dual_tableau``: its columns are the record's rows as they are and
the +- pair of 1, kept on the record by coordinate with the columns of the
kernel's start, and only the objective is scaled per call. ``lp_min``
reads a minimising vertex (minus the simplex multipliers) and its value
off the final tableau's cost row, the walk its seed off the whole tableau.
A credal set is bounded and holds the kernel's start, so the LP's one
failure is an empty set. Coherence and natural extension run no LP of
their own: they read the walk's vertex set (``credal``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .exactla import LpUnbounded, Record, _eliminate, _optimum, _scaled, vec

__all__ = [
    "HPolytope",
    "Vertex",
    "LpResult",
    "OracleGuardError",
    "EmptyPolytopeError",
    "check_guards",
    "vertices_bruteforce",
    "lp_min",
]


class OracleGuardError(RuntimeError):
    """Instance exceeds the brute-force guards; use a structured engine."""


class EmptyPolytopeError(RuntimeError):
    """The feasible set is empty."""


class HPolytope(Record):
    """A credal set on dim outcomes: p . rows[i] >= bounds[i] / den for each
    i, and p . 1 = 1, implicit. The rows are distinct primitive integer
    normals (least entry 0, gcd 1; the zero row only at dim 1), the bounds
    integers over one den > 0, and each e_y's primitive form is a row
    (ValueError otherwise), so the dual holds the LP kernel's start.
    The dual is kept here, built once: its integer costs, its rows by
    coordinate (the rows' entries, then the +- pair of 1) and the column
    of each e_y (None at dim 1, where the zero row is the only row)."""

    __slots__ = ("dim", "rows", "bounds", "den", "_costs", "_dual", "_units")

    def __init__(self, dim: int, rows, bounds, den: int):
        rows, bounds = tuple(map(tuple, rows)), tuple(bounds)
        if len(rows) != len(bounds) or len(set(rows)) != len(rows) or den <= 0 or any(
                len(f) != dim or min(f) or math.gcd(*f) > 1 or dim > 1 and not any(f)
                for f in rows):
            raise ValueError("need distinct primitive integer normals, a bound each and den > 0")
        units = {f.index(1): j for j, f in enumerate(rows) if sum(f) == 1}
        if not rows or dim > 1 and len(units) < dim:
            raise ValueError("no row on some p(y): not a credal set")
        self.dim, self.rows, self.bounds, self.den = dim, rows, bounds, den
        self._costs = (*(-b for b in bounds), -den, den)
        self._dual = tuple((*col, 1, -1) for col in zip(*rows))
        self._units = tuple(map(units.get, range(dim)))


class Vertex(Record):
    """Extreme point of a polytope."""

    __slots__ = ("point",)

    def __init__(self, point):
        self.point = vec(point)


class LpResult(NamedTuple):
    value: object
    argmin: Vertex


def check_guards(p: HPolytope, max_dim: int = 6, max_constraints: int = 25) -> None:
    """Refuse (OracleGuardError) an instance past the brute-force guards."""
    if p.dim > max_dim:
        raise OracleGuardError(
            f"brute force refused: dimension {p.dim} > {max_dim}; "
            "use a structured engine or raise max_dim explicitly"
        )
    if len(p.rows) + 1 > max_constraints:  # p . 1 = 1 counts as one
        raise OracleGuardError(
            f"brute force refused: {len(p.rows) + 1} constraints > {max_constraints}; "
            "use a structured engine or raise max_constraints explicitly"
        )


def vertices_bruteforce(p: HPolytope, *, max_dim: int = 6, max_constraints: int = 25):
    """All vertices of p by exhaustive active-set search, sorted
    lexicographically by point: each dim - 1 rows with p . 1 = 1, solved
    for q = den p on the record's integers (q . 1 = den, q . f = b) by
    ``exactla._eliminate``, which leaves det q over det > 0, and kept where
    f . (det q) >= b det on every row; only those are made Fractions.

    Ground-truth oracle: independent of any fan or adjacency reasoning.
    An empty result means the feasible set is empty.
    """
    check_guards(p, max_dim, max_constraints)
    n, den = p.dim, p.den
    rows = tuple(zip(p.rows, p.bounds))
    seen = set()
    for sel in itertools.combinations(rows, n - 1):
        t = [[1] * n + [den], *([*f, b] for f, b in sel)]
        det, r = _eliminate(t, n)
        q = [row[n] for row in t]
        if r == n and all(sum(map(mul, f, q)) >= b * det for f, b in rows):
            seen.add(tuple(Fraction(a, det * den) for a in q))
    return tuple(Vertex(x) for x in sorted(seen))


def _dual_tableau(p: HPolytope, f) -> tuple:
    """``exactla._optimum`` on p's dual for one integer objective f, past
    ``check_guards``: every LP of the package. The dual of min x . f over p
    maximises b . y + z over y >= 0 and z with sum y_i f_i + z 1 == f, on
    columns kept on p (its rows as they are, then the +- pair of 1 for the
    free z) with its costs and the unit columns of the kernel's start.
    Returns the final tableau, its det and basis. p holds the start, so the
    dual is unbounded exactly when p is empty: EmptyPolytopeError."""
    check_guards(p)
    try:
        return _optimum(p._dual, f, p._costs, p._units)
    except LpUnbounded:
        raise EmptyPolytopeError("no vertices: empty or degenerate feasible set") from None


def lp_min(p: HPolytope, f) -> LpResult:
    """Exact minimum of x . f over p and a vertex attaining it, read off the
    cost row of ``_dual_tableau``'s final tableau: the value at its cost
    entry, x as minus the simplex multipliers past it. On a tie, the vertex is
    that of the basis Bland's rule ends on from the start basis, fixed by
    p's row order and f; no other tie rule is promised. ValueError when f
    and p's rows differ in length; raises as ``_dual_tableau``."""
    e, g = _scaled(vec(f))
    if len(g) != p.dim:
        raise ValueError("the objective and the rows differ in length")
    t, det, _ = _dual_tableau(p, g)
    s, cost = det * p.den, t[-1][len(p._costs):]
    return LpResult(Fraction(cost[0], s * e), Vertex(tuple(Fraction(a, s) for a in cost[1:])))
