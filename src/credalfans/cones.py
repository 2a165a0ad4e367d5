"""The support universe of a normal fan and the MESC test, read off a
dual basis.

Throughout, the constant-one vector is lineality: it is never a one-sided
generator. A MESC over a support universe U (a finite vector family that
includes the constant-one direction) is a cone whose generators, together
with the constant-one vector, form a basis, and which absorbs no other
member of U. MESCs are the maximal cells available for triangulating a
normal fan whose rays are drawn from U, which is what makes the adjacency
walk work.

The MESC test is read off the dual basis of the generators plus
constant-one: ``dual_basis`` is None when they are no basis, and
``absorbed`` returns a universe vector inside the cone, since the dual rows
give the coordinates of any vector and membership is a sign test. A
generator's row is also the normal of the wall opposite it, which is how
the walk crosses walls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import dot, inverse, ones, vec

__all__ = [
    "SupportUniverse",
    "dual_basis",
    "absorbed",
]


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

    def __len__(self):
        return len(self.vectors)


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
    """The first of vectors in cone(generators) + span(constant-one), given
    the generators' dual basis, else None: v is in it iff its coordinates
    t_i . v on the generators' rows are all nonnegative."""
    gen_rows = dual[:-1]
    return next((v for v in vectors if all(dot(t, v) >= 0 for t in gen_rows)), None)

