"""Polytopes in H-representation, the brute-force vertex oracle and the
exact LP.

A polytope is stored as inequality rows ``x . f >= b`` plus equality rows
``x . f == b``. The vertex oracle enumerates every maximal linearly
independent active set by subset search; it is deliberately simple and
exact, guarded to small instances, and serves as the ground truth that the
structured fast paths are tested against. Every LP of the package is one
guarded ``exactla.simplex_each`` on the dual, in ``_dual_solve``: ``lp_min``
reads a minimising vertex (minus the simplex multipliers) and its value off
its cost row, ``lp_minima`` the minima of many objectives. The LP is
defined on credal sets alone, which hold the kernel's start: a row on a
positive multiple of each p(y) and an equality on a multiple of p . 1.
Such a set is bounded, so the LP's one failure is an empty set. The
oracle stays general: it is the ground truth.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .exactla import LpUnbounded, Record, dot, rank, rat, simplex_each, solve_unique, vec, vneg

__all__ = [
    "HPolytope",
    "Vertex",
    "LpResult",
    "OracleGuardError",
    "EmptyPolytopeError",
    "SeedSearchError",
    "check_guards",
    "vertices_bruteforce",
    "lp_min",
    "lp_minima",
]


class OracleGuardError(RuntimeError):
    """Instance exceeds the brute-force guards; use a structured engine."""


class EmptyPolytopeError(RuntimeError):
    """The feasible set is empty."""


class SeedSearchError(RuntimeError):
    """No seed cone for ``fanwalk.walk``; here, so the command line catches it unloaded."""


class HPolytope(Record):
    """dim-dimensional H-polytope: rows (f, b) meaning x . f >= b, equality
    rows meaning x . f == b."""

    __slots__ = ("dim", "inequalities", "equalities")

    def __init__(self, dim: int, inequalities, equalities=()):
        ineqs = tuple((vec(f), rat(b)) for f, b in inequalities)
        eqs = tuple((vec(f), rat(b)) for f, b in equalities)
        for f, _ in ineqs + eqs:
            if len(f) != dim:
                raise ValueError("constraint normal has wrong dimension")
            if not any(f):
                raise ValueError("zero constraint normal")
        self.dim, self.inequalities, self.equalities = dim, ineqs, eqs

    @property
    def n_constraints(self) -> int:
        return len(self.inequalities) + len(self.equalities)

    def is_feasible(self, x) -> bool:
        x = vec(x)
        return all(dot(x, f) >= b for f, b in self.inequalities) and all(
            dot(x, f) == b for f, b in self.equalities
        )


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
    if p.n_constraints > max_constraints:
        raise OracleGuardError(
            f"brute force refused: {p.n_constraints} constraints > {max_constraints}; "
            "use a structured engine or raise max_constraints explicitly"
        )


def vertices_bruteforce(p: HPolytope, *, max_dim: int = 6, max_constraints: int = 25):
    """All vertices of p by exhaustive active-set search, sorted
    lexicographically by point.

    Ground-truth oracle: independent of any fan or adjacency reasoning.
    An empty result means the feasible set is empty, contains no extreme
    point (nontrivial lineality), or the polytope is otherwise degenerate;
    callers that require vertices should treat it as a diagnostic.
    """
    check_guards(p, max_dim, max_constraints)
    eq_rows = [f for f, _ in p.equalities]
    eq_rhs = [b for _, b in p.equalities]
    r0 = rank(eq_rows) if eq_rows else 0
    k = p.dim - r0
    seen = set()
    for sel in itertools.combinations(range(len(p.inequalities)), k):
        rows = eq_rows + [p.inequalities[i][0] for i in sel]
        rhs = eq_rhs + [p.inequalities[i][1] for i in sel]
        if not rows:
            continue
        x = solve_unique(rows, rhs)
        if x is None or not p.is_feasible(x):
            continue
        seen.add(x)
    return tuple(Vertex(x) for x in sorted(seen))


_NO_VERTEX = "no vertices: empty or degenerate feasible set"


def _dual_solve(p: HPolytope, objectives):
    """One ``exactla.simplex_each`` on the dual LP (each equality as a +-
    pair of rows) for a nonempty list of objectives, under the oracle
    guards: every LP of the package.

    The dual of min x . f over p maximises b . y over multipliers y with
    sum y_i f_i == f, y >= 0 on the rows' normals f_i; at an optimal basis
    the basic rows of p hold with equality. p must hold the kernel's start
    (ValueError otherwise), which is a feasible dual basis, so the dual is
    unbounded exactly when p is empty: EmptyPolytopeError.
    """
    check_guards(p)
    rows = list(p.inequalities + p.equalities) + [(vneg(g), -b) for g, b in p.equalities]
    try:
        return simplex_each([g for g, _ in rows], objectives, [-b for _, b in rows])
    except LpUnbounded:
        raise EmptyPolytopeError(_NO_VERTEX) from None


def lp_min(p: HPolytope, f) -> LpResult:
    """Exact minimum of x . f over p and a vertex attaining it, read off the
    cost row of ``_dual_solve``'s final tableau: x is minus its multipliers.
    On a tie, the vertex is that of the basis Bland's rule ends on from the
    start basis, fixed by p's row order and f; no other tie rule is
    promised. Defined where p holds the kernel's start, as every credal set
    does; raises as ``_dual_solve``, and OracleGuardError past the oracle's
    guards."""
    ((s, _, cost, duals),) = _dual_solve(p, [vec(f)])
    return LpResult(Fraction(-cost, s), Vertex(tuple(Fraction(-a, s) for a in duals)))


def lp_minima(p: HPolytope, objectives) -> list:
    """[lp_min(p, f).value for f in objectives], read off the cost row of one
    ``_dual_solve``, which raises as lp_min does for the first objective. On
    a credal set every objective has a minimum; where p lacks a unit row, a
    later objective may be unbounded below (exactla.LpInfeasible). An empty
    list runs no guard and no LP."""
    if not objectives:
        return []
    return [Fraction(-cost, s) for s, _, cost, _ in _dual_solve(p, objectives)]
