"""Credal polytopes, the brute-force vertex oracle and the exact LP.

Every polytope of the package is a credal set, one ``HPolytope`` record
built once per model (``credal.build_credal_hrep``, ``pri.pri_hrep``):
rows p . f >= b on primitive integer normals f, a row on each p(y), the
bounds over one denominator, and p . 1 = 1 implicit. The vertex oracle
solves every dim - 1 rows with p . 1 = 1 by subset search, on the record's
integers through ``exactla._eliminate``; it is deliberately simple and
exact, guarded to small instances, and the ground truth the structured
fast paths are tested against. Every LP is one run of the kernel on the
dual, ``_guarded``: its columns are the record's rows as they are and the
+- pair of 1, kept on the record by coordinate with the columns of the
kernel's start, and only the objectives are scaled per call. ``lp_min``
reads a minimising vertex (minus the simplex multipliers) and its value
off its cost row, ``lp_minima`` the minima of many objectives and the
walk its seed off the final tableau (``_dual_tableau``). A credal set is
bounded and holds the kernel's start, so the LP's one failure is an
empty set.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .exactla import LpUnbounded, Record, _eliminate, _optimum, _scaled, simplex_each, vec

__all__ = [
    "HPolytope",
    "Vertex",
    "LpResult",
    "OracleGuardError",
    "EmptyPolytopeError",
    "check_guards",
    "vertices_bruteforce",
    "lp_min",
    "lp_minima",
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


_NO_VERTEX = "no vertices: empty or degenerate feasible set"


def _guarded(p: HPolytope, kernel, targets):
    """kernel (``exactla.simplex_each`` or ``exactla._optimum``) on p's
    dual for targets, past ``check_guards``: every LP of the package. The
    dual of min x . f over p maximises b . y + z over y >= 0 and z with
    sum y_i f_i + z 1 == f: its columns are p's rows as they are and the +-
    pair of 1 for the free z, its costs p's own, all kept on p with the
    unit columns of the kernel's start. p holds that start, so the dual is
    unbounded exactly when p is empty: EmptyPolytopeError."""
    check_guards(p)
    try:
        return kernel(p._dual, targets, p._costs, p._units)
    except LpUnbounded:
        raise EmptyPolytopeError(_NO_VERTEX) from None


def _dual_solve(p: HPolytope, objectives):
    """``exactla.simplex_each`` for a nonempty list of integer objectives,
    ``_guarded``."""
    return _guarded(p, simplex_each, objectives)


def _dual_tableau(p: HPolytope, f) -> tuple:
    """``exactla._optimum`` for one integer objective f, ``_guarded``: the
    final tableau, whose columns are p's rows in order, then the +- pair of
    1, with its det and basis."""
    return _guarded(p, _optimum, f)


def lp_min(p: HPolytope, f) -> LpResult:
    """Exact minimum of x . f over p and a vertex attaining it, read off the
    cost row of ``_dual_solve``'s final tableau: x is minus its multipliers.
    On a tie, the vertex is that of the basis Bland's rule ends on from the
    start basis, fixed by p's row order and f; no other tie rule is
    promised. Raises as ``_guarded``."""
    e, g = _scaled(vec(f))
    ((det, _, cost, duals),) = _dual_solve(p, [g])
    s = det * p.den
    return LpResult(Fraction(-cost, s * e), Vertex(tuple(Fraction(-a, s) for a in duals)))


def lp_minima(p: HPolytope, objectives) -> list:
    """[lp_min(p, f).value for f in objectives], read off the cost row of one
    ``_dual_solve``, which raises as lp_min does for the first objective;
    every later objective has a minimum on the credal set p. An empty list
    runs no guard and no LP."""
    if not objectives:
        return []
    scaled = [_scaled(vec(f)) for f in objectives]
    solved = _dual_solve(p, [g for _, g in scaled])
    return [Fraction(-cost, det * p.den * e) for (det, _, cost, _), (e, _) in zip(solved, scaled)]
