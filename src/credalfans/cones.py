"""The support universe of a normal fan.

Throughout, the constant-one vector is lineality: it is never a one-sided
generator, and f and c f + k 1 (c > 0) span one cone with it, so a
universe keeps each vector as its primitive integer normal (least entry 0,
gcd 1), the constant as the zero row. A MESC over a support universe U is
a cone whose generators, together with the constant-one vector, form a
basis, and which absorbs no other member of U: the maximal cells for
triangulating a normal fan whose rays are drawn from U. The walk
(``fanwalk``) runs the MESC test itself, as a sign scan of each new cone's
pivot table.
"""

from __future__ import annotations

import math

__all__ = ["support_universe"]


def support_universe(normals) -> tuple:
    """The universe of the primitive integer rows ``normals``, the constant
    among them as the zero row: a tuple of the distinct rows, sorted as
    their Fraction vectors, each row over its first nonzero entry and the
    zero row as the ones vector. Node keys are indices into it. Each
    builder hands over rows already in this form; none is checked here."""
    lead = {v: next((a for a in v if a), 1) for v in normals}
    scale = math.lcm(*lead.values())
    return tuple(sorted(lead, key=lambda v: [a * (scale // lead[v]) for a in v] if any(v)
                        else [scale] * len(v)))
