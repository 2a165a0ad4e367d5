"""Polytopes in H-representation, the brute-force vertex oracle and the
exact LP.

A polytope is stored as inequality rows ``x . f >= b`` plus equality rows
``x . f == b``. The vertex oracle enumerates every maximal linearly
independent active set by subset search; it is deliberately simple and
exact, guarded to small instances, and serves as the ground truth that the
structured fast paths are tested against. ``lp_min`` minimises a linear
function by one exact simplex, ``lp_minima`` many, under the same guards.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .exactla import (
    LpInfeasible,
    LpUnbounded,
    Record,
    dot,
    rank,
    rat,
    simplex,
    simplex_each,
    solve_unique,
    vec,
    vneg,
    zeros,
)

__all__ = [
    "HPolytope",
    "Vertex",
    "LpResult",
    "OracleGuardError",
    "EmptyPolytopeError",
    "UnboundedLpError",
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


class UnboundedLpError(RuntimeError):
    """The objective is unbounded below over the polyhedron."""


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


def _dual(p: HPolytope):
    """The dual LP's rows (each equality as a +- pair), columns and costs."""
    rows = list(p.inequalities + p.equalities) + [(vneg(g), -b) for g, b in p.equalities]
    return rows, [g for g, _ in rows], [-b for _, b in rows]


def lp_min(p: HPolytope, f) -> LpResult:
    """Exact minimum of x . f over p and a vertex attaining it, by one
    ``exactla.simplex`` on the dual.

    The dual LP maximises b . y over multipliers y with sum y_i f_i == f,
    y >= 0 on the inequality normals f_i and free on the equality normals
    (each entered as a +- pair of columns). At its optimal basis the basic
    rows of p hold with equality and define the returned vertex. When
    several vertices attain the minimum, the one returned is the vertex of
    the basis Bland's rule ends on, fixed by the row order of p and f; no
    other tie rule is promised.

    Raises EmptyPolytopeError when p is empty or has no vertex (its
    normals do not span), UnboundedLpError when x . f is unbounded below
    over p, and keeps the oracle's guards (OracleGuardError).
    """
    check_guards(p)
    f = vec(f)
    rows, normals, costs = _dual(p)
    try:
        _, basis = simplex(normals, f, costs)
    except LpUnbounded:  # the dual is unbounded, so p is empty
        basis = ()
    except LpInfeasible:  # f leaves the normals' cone: unbounded unless p is empty
        try:
            simplex(normals, zeros(p.dim), costs)
        except LpUnbounded:
            basis = ()
        else:
            raise UnboundedLpError("x . f is unbounded below over the polyhedron") from None
    if len(basis) < p.dim:  # empty, or no vertex because the normals do not span
        raise EmptyPolytopeError("no vertices: empty or degenerate feasible set")
    x = solve_unique([normals[j] for j in basis], [rows[j][1] for j in basis])
    return LpResult(dot(x, f), Vertex(x))


def lp_minima(p: HPolytope, objectives) -> list:
    """[lp_min(p, f).value for f in objectives], read off the cost row of one
    ``exactla.simplex_each`` on the dual. Hypothesis: the first optimal basis
    spans (p has a vertex), else EmptyPolytopeError as from lp_min. An empty
    list runs no guard and no LP."""
    if not objectives:
        return []
    check_guards(p)
    _, normals, costs = _dual(p)
    try:
        solved = simplex_each(normals, [vec(f) for f in objectives], costs)
    except (LpInfeasible, LpUnbounded):
        # lp_min's own error if the first objective fails, else a later one is unbounded
        lp_min(p, objectives[0])
        raise UnboundedLpError("x . f is unbounded below over the polyhedron") from None
    if len(solved[0][0]) < p.dim:
        raise EmptyPolytopeError("no vertices: empty or degenerate feasible set")
    return [-cost for _, cost in solved]
