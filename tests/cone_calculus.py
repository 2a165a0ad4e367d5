"""The cone calculus the acceptance suite checks the paper's claims with,
on the engine's own primitives. Every cone tested for membership or
adjacency here is simplicial modulo the constant-one lineality, so
``cones.dual_basis`` gives a vector's unique coordinates and
``cones.absorbed`` reads membership off their signs: no LP. Those
coordinates are the conic witness. Normal-cone membership is its
definition: f is in N(x) iff x attains E(f).
"""

import itertools
from typing import NamedTuple

from credalfans.cones import absorbed, dual_basis
from credalfans.credal import natural_extension
from credalfans.exactla import dot, indicator, vec
from credalfans.polytope import active_set
from credalfans.pri import PriCone


class Cone(NamedTuple):
    """cone(generators) + span(constant-one)."""

    generators: tuple


class Witness(NamedTuple):
    """Conic membership certificate: v == sum coeffs_i generators_i +
    lineality_coeffs[0] (constant-one), with coeffs >= 0 when v is in the
    cone."""

    coeffs: tuple
    lineality_coeffs: tuple


def witness(dual, v) -> Witness:
    """The coordinates t . v of v over a dual basis's rows, the
    constant-one row last; unique, since the cone is simplicial."""
    *gen_rows, shift = dual
    return Witness(tuple(dot(t, v) for t in gen_rows), (dot(shift, v),))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def contains(cone: Cone, v) -> bool:
    """Closed membership of v in a simplicial cone."""
    return absorbed(dual_basis(cone.generators, len(v)), [vec(v)]) is not None


def are_adjacent(a: Cone, b: Cone) -> bool:
    """Sign test for two simplicial cones sharing all generators but one
    (ValueError otherwise). The row t of a's dual basis that belongs to f,
    the generator b lacks, is the normal of the common wall, so the cones
    lie on opposite sides iff t . g < 0 for b's new generator g."""
    (f,) = set(a.generators) - set(b.generators)
    (g,) = set(b.generators) - set(a.generators)
    dual = dual_basis(a.generators, len(f))
    return dot(dual[a.generators.index(f)], g) < 0


def chain_cone(chain) -> Cone:
    """The chain's cone: its proper events' indicators, sorted."""
    return Cone(tuple(sorted(indicator(chain.n, s) for s in chain.sets[:-1])))


def locate_cone(f) -> tuple:
    """The interval-model cones (x, A, B) whose relative interior holds f:
    one per outcome x tied with no other, with A (f above f(x)) and B
    (below) both nonempty; n - 2 of them when f's values are distinct."""
    fv = vec(f)
    n = len(fv)
    out = []
    for x in range(n):
        a = frozenset(y for y in range(n) if fv[y] > fv[x])
        b = frozenset(z for z in range(n) if fv[z] < fv[x])
        if a and b and len(a) + len(b) == n - 1:
            out.append(PriCone(x, a, b))
    return tuple(sorted(out, key=lambda c: (c.x, sorted(c.a), sorted(c.b))))


def is_comonotone(f, g) -> bool:
    """No two outcomes on which f and g move strictly opposite ways."""
    return all((f[i] - f[j]) * (g[i] - g[j]) >= 0
               for i, j in itertools.combinations(range(len(f)), 2))


def normal_cone_at(h, x) -> Cone:
    """The directions minimised at the vertex x of h, modulo its equality
    (the constant one): the active inequality normals generate."""
    m = len(h.inequalities)
    return Cone(tuple(sorted({h.inequalities[i][0] for i in active_set(h, x) if i < m})))


def cone_additivity_check(lp, vertex_point, g, h):
    """None (skip) unless g and h both lie in the normal cone at the
    extreme point, else whether E(g + h) == E(g) + E(h) exactly."""
    x = vec(vertex_point)
    if any(dot(x, vec(f)) != natural_extension(lp, f) for f in (g, h)):
        return None
    return natural_extension(lp, vadd(g, h)) == natural_extension(lp, g) + natural_extension(lp, h)


class EventCollection(tuple):
    """A family of events, each a set of outcome indices."""

    @classmethod
    def from_labels(cls, space, groups):
        return cls(frozenset(space.index(x) for x in g) for g in groups)


class EventMescReport(NamedTuple):
    ok: bool
    reason: str = None  # None, 'no-basis' or 'absorbs'
    events: tuple = ()
    witness: object = None


def is_event_mesc(col, space) -> EventMescReport:
    """Does the family, which must hold the sure event, span a MESC over all
    event indicators? Else 'no-basis', or 'absorbs' with the first other
    event whose indicator is in the cone and the witness of that."""
    n = space.n
    omega = frozenset(range(n))
    events = {frozenset(e) for e in col}
    if omega not in events:
        raise ValueError("the family must contain the sure event")
    members = sorted(events - {omega}, key=lambda e: (len(e), sorted(e)))
    dual = dual_basis([indicator(n, e) for e in members], n)
    if dual is None:
        return EventMescReport(False, "no-basis", tuple(members))
    others = [frozenset(s) for r in range(1, n) for s in itertools.combinations(range(n), r)]
    others = {indicator(n, e): e for e in others if e not in events}
    found = absorbed(dual, others)
    if found is None:
        return EventMescReport(True)
    return EventMescReport(False, "absorbs", (others[found],), witness(dual, found))
