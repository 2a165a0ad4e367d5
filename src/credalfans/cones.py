"""The support universe of a normal fan.

Throughout, the constant-one vector is lineality: it is never a one-sided
generator, and f and c f + k 1 (c > 0) span one cone with it, so a
universe keeps each vector as its primitive integer normal. A MESC over a
support universe U is a cone whose generators, together with the
constant-one vector, form a basis, and which absorbs no other member of U:
the maximal cells for triangulating a normal fan whose rays are drawn from
U. The walk (``fanwalk``) runs the MESC test itself, as a sign scan of each
new cone's pivot table.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactla import Record, _primitive, format_rat

__all__ = ["SupportUniverse"]


class SupportUniverse(Record):
    """Finite family of support vectors as primitive integer normals
    (``exactla._primitive``; a row of ints with least entry 0 and gcd at
    most 1 already is one, and is taken as it is), deduplicated; it must
    hold the constant, as the zero row. Sorted as ``vectors`` are, the
    Fraction forms and their strings (``formatted``) built on their first
    read, for export: each normal over its first nonzero entry, the constant
    as the ones vector. A universe is immutable; pri_hrep shares one per n."""

    __slots__ = ("normals", "_vectors", "_formatted")

    def __init__(self, vectors):
        normals = {v if all(type(a) is int for a in v) and min(v) == 0 and math.gcd(*v) <= 1
                   else _primitive(v) for v in map(tuple, vectors)}
        n = len(next(iter(normals), ()))
        if any(len(v) != n for v in normals) or (0,) * n not in normals:
            raise ValueError("need vectors of one dimension, the constant-one vector among them")
        lead = {v: next((a for a in v if a), 1) for v in normals}
        scale = math.lcm(*lead.values())
        self.normals = tuple(sorted(normals, key=lambda v: [a * m for a in v] if any(v) and (
            m := scale // lead[v]) else [scale] * n))
        self._vectors = self._formatted = None

    @property
    def vectors(self) -> tuple:
        if self._vectors is None:
            memo = {}  # one object per value, so export formats each once
            pairs = ((v, next(a for a in v if a)) if any(v) else ((1,) * len(v), 1)
                     for v in self.normals)
            self._vectors = tuple(tuple(memo.setdefault((a, c), Fraction(a, c)) for a in v)
                                  for v, c in pairs)
        return self._vectors

    @property
    def formatted(self) -> tuple:
        if self._formatted is None:
            self._formatted = tuple(tuple(map(format_rat, v)) for v in self.vectors)
        return self._formatted

    @property
    def dim(self) -> int:
        return len(self.normals[0])

    def __len__(self):
        return len(self.normals)
