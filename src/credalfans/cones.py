"""The support universe of a normal fan.

Throughout, the constant-one vector is lineality: it is never a one-sided
generator. A MESC over a support universe U (a finite vector family that
includes the constant-one direction) is a cone whose generators, together
with the constant-one vector, form a basis, and which absorbs no other
member of U. MESCs are the maximal cells available for triangulating a
normal fan whose rays are drawn from U, which is what makes the adjacency
walk work. The walk (``fanwalk``) runs the MESC test itself, as a sign scan
of each new cone's pivot table: the universe's coordinates on its generators.
"""

from __future__ import annotations

from .exactla import Record, ones, vec

__all__ = ["SupportUniverse"]


class SupportUniverse(Record):
    """Finite family of support vectors; must contain the constant-one
    vector (the lineality direction of every cone drawn from it).
    Stored sorted and deduplicated."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        vs = tuple(sorted({vec(v) for v in vectors}))
        if not vs:
            raise ValueError("empty support universe")
        n = len(vs[0])
        if any(len(v) != n for v in vs):
            raise ValueError("mixed dimensions in support universe")
        if ones(n) not in vs:
            raise ValueError("support universe must contain the constant-one vector")
        self.vectors = vs

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    def __len__(self):
        return len(self.vectors)

