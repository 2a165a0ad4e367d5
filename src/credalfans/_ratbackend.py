"""Exact rational arithmetic backend.

Every kernel in this package runs on exact rationals; nothing downstream may
introduce floating point. Two interchangeable backends provide the number
type:

* ``gmpy2.mpq`` -- GMP-backed C extension, used when importable (the compiled
  core for the hot kernels),
* ``fractions.Fraction`` -- pure-Python fallback.

Selection happens once at import. Set ``CREDALFANS_PURE_PYTHON=1`` to force
the pure fallback (the benchmark harness compares both in subprocesses).
The two types share hash, ordering, and string semantics, so all code above
this module is backend-agnostic.
"""

from __future__ import annotations

import os
from fractions import Fraction as _Fraction

__all__ = ["Rat", "BACKEND", "rat", "format_rat"]

if os.environ.get("CREDALFANS_PURE_PYTHON"):
    Rat = _Fraction
    BACKEND = "fraction"
else:
    try:
        from gmpy2 import mpq as Rat  # type: ignore[no-redef]

        BACKEND = "gmpy2"
    except ImportError:  # pragma: no cover - exercised via env override instead
        Rat = _Fraction
        BACKEND = "fraction"

_RAT_TYPE = type(Rat(0))
_ACCEPTED = (int, str, _Fraction, _RAT_TYPE)


def rat(value):
    """Coerce ``value`` to the backend rational type.

    Accepts backend rationals, ints, Fractions, and strings like ``"-3/4"``
    or ``"7"``. Floats are rejected: silently admitting them would break the
    exactness contract.
    """
    if isinstance(value, _RAT_TYPE):
        return value
    if isinstance(value, bool) or not isinstance(value, _ACCEPTED):
        raise TypeError(f"not an exact rational: {value!r} of {type(value).__name__}")
    if isinstance(value, str):
        return Rat(value.strip())
    return Rat(value)


def format_rat(value) -> str:
    """Canonical string form: ``"p/q"`` in lowest terms, ``"p"`` if integral."""
    num = int(value.numerator)
    den = int(value.denominator)
    return str(num) if den == 1 else f"{num}/{den}"
