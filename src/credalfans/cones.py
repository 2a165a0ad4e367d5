"""Simplicial cones modulo a constant-direction lineality, and the MESC test.

Throughout, the constant-one vector is lineality: it is never a one-sided
generator. A MESC over a support universe U (a finite vector family that
includes the constant-one direction) is a cone whose generators, together
with the constant-one vector, form a basis, and which absorbs no other
member of U. MESCs are the maximal cells available for triangulating a
normal fan whose rays are drawn from U, which is what makes the adjacency
walk work.

The MESC test is read off the dual basis of the generators plus
constant-one: ``dual_basis`` is None when they are no basis, and
``absorbed`` finds a universe vector inside the cone, since the dual rows
give the coordinates of any vector and membership is a sign test. The
rows are also the wall normals (``are_adjacent``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import (
    SpanWitness,
    dot,
    in_nonneg_span,
    inverse,
    ones,
    vec,
)

__all__ = [
    "Cone",
    "SupportUniverse",
    "AdjacencyPreconditionError",
    "contains",
    "dual_basis",
    "absorbed",
    "are_adjacent",
]


class AdjacencyPreconditionError(ValueError):
    """The two cones do not share a candidate common facet."""


@dataclass(frozen=True)
class Cone:
    """Finitely generated cone: cone(generators) + span(lineality).

    Generators are stored deduplicated and sorted (canonical form), so two
    equal cones given in different orders compare equal. Zero vectors are
    rejected in both roles.
    """

    generators: tuple
    lineality: tuple = ()

    def __post_init__(self):
        gens = sorted({vec(g) for g in self.generators})
        lin = sorted({vec(l) for l in self.lineality})
        for v in gens + lin:
            if all(a == 0 for a in v):
                raise ValueError("zero vector in cone description")
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "lineality", tuple(lin))

    @property
    def dim_ambient(self) -> int:
        for v in self.generators + self.lineality:
            return len(v)
        raise ValueError("empty cone has no ambient dimension")


@dataclass(frozen=True)
class SupportUniverse:
    """Finite family of support vectors; must contain the constant-one
    vector (the lineality direction of every cone drawn from it).
    Stored sorted and deduplicated."""

    vectors: tuple

    def __post_init__(self):
        vs = tuple(sorted({vec(v) for v in self.vectors}))
        if not vs:
            raise ValueError("empty support universe")
        n = len(vs[0])
        if any(len(v) != n for v in vs):
            raise ValueError("mixed dimensions in support universe")
        if ones(n) not in vs:
            raise ValueError("support universe must contain the constant-one vector")
        object.__setattr__(self, "vectors", vs)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, v):
        return vec(v) in self.vectors


def contains(c: Cone, v) -> bool:
    """Closed-cone membership: v in cone(generators) + span(lineality)."""
    return in_nonneg_span(c.generators, c.lineality, v) is not None


def dual_basis(generators, n: int):
    """Rows t_i with t_i . b_j == [i == j] over the basis b = generators +
    (constant-one): the inverse of the matrix whose columns are b, one
    exact elimination; None when b is not a basis. The coordinates of v in
    b are t_i . v, so a generator's row is the normal of the wall opposite
    it."""
    basis = list(generators) + [ones(n)]
    if len(basis) != n:
        return None
    return inverse(list(zip(*basis)))


def absorbed(dual, vectors):
    """(v, witness) for the first of vectors in cone(generators) +
    span(constant-one), given the generators' dual basis, else None. The
    witness is unique: its coefficients are the coordinates t_i . v."""
    *gen_rows, shift = dual
    for v in vectors:
        if all(dot(t, v) >= 0 for t in gen_rows):
            return v, SpanWitness(tuple(dot(t, v) for t in gen_rows), (dot(shift, v),))
    return None


def are_adjacent(a: Cone, b: Cone) -> bool:
    """Sign test for two MESCs sharing all generators but one.

    The row t of a's dual basis that belongs to f, the generator b lacks,
    is the normal of the common wall (t . f == 1), so the cones lie on
    opposite sides iff t . g < 0 for b's new generator g. Raises
    AdjacencyPreconditionError unless both lineality spaces are exactly
    {constant-one}, the inputs share exactly all-but-one generator, and a's
    generators plus constant-one are a basis.
    """
    n = a.dim_ambient
    if not a.lineality == b.lineality == (ones(n),):
        raise AdjacencyPreconditionError("lineality must be exactly {constant-one} on both cones")
    sa, sb = set(a.generators), set(b.generators)
    if len(sa) != len(sb):
        raise AdjacencyPreconditionError("generator counts differ")
    shared = sa & sb
    if len(shared) != len(sa) - 1:
        raise AdjacencyPreconditionError(
            f"cones share {len(shared)} of {len(sa)} generators; need all but one"
        )
    (f,) = sa - sb
    (g,) = sb - sa
    dual = dual_basis(a.generators, n)
    if dual is None:
        raise AdjacencyPreconditionError("generators plus constant-one are not a basis")
    return dot(g, dual[a.generators.index(f)]) < 0
