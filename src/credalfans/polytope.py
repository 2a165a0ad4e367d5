"""Polytopes in H-representation and the brute-force vertex oracle.

A polytope is stored as inequality rows ``x . f >= b`` plus equality rows
``x . f == b``. The vertex oracle enumerates every maximal linearly
independent active set by subset search; it is deliberately simple and
exact, guarded to small instances, and serves as the ground truth that the
structured fast paths are tested against.

Constraints are indexed in one shared space: inequality i has index i,
equality j has index ``len(inequalities) + j``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from . import cones
from .exactla import dot, rank, rat, solve_unique, vec

__all__ = [
    "HPolytope",
    "Vertex",
    "LpResult",
    "OracleGuardError",
    "EmptyPolytopeError",
    "InfeasiblePointError",
    "vertices_bruteforce",
    "active_set",
    "normal_cone_at",
    "lp_min",
]


class OracleGuardError(RuntimeError):
    """Instance exceeds the brute-force guards; use a structured engine."""


class EmptyPolytopeError(RuntimeError):
    """The feasible set is empty."""


class InfeasiblePointError(ValueError):
    """The queried point violates a constraint."""


@dataclass(frozen=True)
class HPolytope:
    """dim-dimensional H-polytope: rows (f, b) meaning x . f >= b, equality
    rows meaning x . f == b."""

    dim: int
    inequalities: tuple
    equalities: tuple = ()

    def __post_init__(self):
        ineqs = tuple((vec(f), rat(b)) for f, b in self.inequalities)
        eqs = tuple((vec(f), rat(b)) for f, b in self.equalities)
        for f, _ in ineqs + eqs:
            if len(f) != self.dim:
                raise ValueError("constraint normal has wrong dimension")
            if all(a == 0 for a in f):
                raise ValueError("zero constraint normal")
        object.__setattr__(self, "inequalities", ineqs)
        object.__setattr__(self, "equalities", eqs)

    @property
    def n_constraints(self) -> int:
        return len(self.inequalities) + len(self.equalities)

    def is_feasible(self, x) -> bool:
        x = vec(x)
        return all(dot(x, f) >= b for f, b in self.inequalities) and all(
            dot(x, f) == b for f, b in self.equalities
        )

@dataclass(frozen=True)
class Vertex:
    """Extreme point with the full set of active constraint indices."""

    point: tuple
    active: frozenset

    def __post_init__(self):
        object.__setattr__(self, "point", vec(self.point))
        object.__setattr__(self, "active", frozenset(self.active))


class LpResult(NamedTuple):
    value: object
    argmin: Vertex


def _check_guards(p: HPolytope, max_dim: int, max_constraints: int) -> None:
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


def active_set(p: HPolytope, x) -> frozenset:
    """Indices of all constraints tight at the feasible point x."""
    x = vec(x)
    if not p.is_feasible(x):
        raise InfeasiblePointError(f"point {x} violates the constraint system")
    m = len(p.inequalities)
    act = {i for i, (f, b) in enumerate(p.inequalities) if dot(x, f) == b}
    act.update(range(m, m + len(p.equalities)))
    return frozenset(act)


def vertices_bruteforce(p: HPolytope, *, max_dim: int = 6, max_constraints: int = 25):
    """All vertices of p by exhaustive active-set search, sorted
    lexicographically by point.

    Ground-truth oracle: independent of any fan or adjacency reasoning.
    An empty result means the feasible set is empty, contains no extreme
    point (nontrivial lineality), or the polytope is otherwise degenerate;
    callers that require vertices should treat it as a diagnostic.
    """
    _check_guards(p, max_dim, max_constraints)
    eq_rows = [f for f, _ in p.equalities]
    eq_rhs = [b for _, b in p.equalities]
    r0 = rank(eq_rows) if eq_rows else 0
    k = p.dim - r0
    seen = {}
    for sel in itertools.combinations(range(len(p.inequalities)), k):
        rows = eq_rows + [p.inequalities[i][0] for i in sel]
        rhs = eq_rhs + [p.inequalities[i][1] for i in sel]
        if not rows:
            continue
        x = solve_unique(rows, rhs)
        if x is None or not p.is_feasible(x):
            continue
        if x not in seen:
            seen[x] = Vertex(x, active_set(p, x))
    return tuple(seen[x] for x in sorted(seen))


def normal_cone_at(p: HPolytope, x) -> cones.Cone:
    """Cone of directions minimized at x: active inequality normals as
    generators, all equality normals as lineality."""
    act = active_set(p, x)
    m = len(p.inequalities)
    gens = tuple(p.inequalities[i][0] for i in sorted(act) if i < m)
    lin = tuple(f for f, _ in p.equalities)
    return cones.Cone(gens, lin)


def lp_min(p: HPolytope, f, *, max_dim: int = 6, max_constraints: int = 25) -> LpResult:
    """Exact minimum of x . f over p via the vertex oracle.

    Ties broken toward the lexicographically smallest argmin vertex.
    """
    f = vec(f)
    vs = vertices_bruteforce(p, max_dim=max_dim, max_constraints=max_constraints)
    if not vs:
        raise EmptyPolytopeError("no vertices: empty or degenerate feasible set")
    best = None
    arg = None
    for v in vs:  # vs is lex-sorted, so first strict improvement wins ties
        val = dot(v.point, f)
        if best is None or val < best:
            best = val
            arg = v
    return LpResult(best, arg)
