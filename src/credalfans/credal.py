"""Lower previsions, their credal sets, and natural extension.

A lower prevision assigns a supremum acceptable buying price to each of
finitely many gambles (real-valued maps on a finite outcome space). Its
credal set is the polytope of probability mass functions dominating every
assessment:

    p . f >= lpr(f)   for each assessed gamble f,
    p . 1_x >= 0      for each outcome x,
    p . 1   == 1,

built once per model as one integer ``polytope.HPolytope``. The
probability-one equality makes the constant-one direction lineality in
every normal cone, so p . f >= b and p . (c f + k 1) >= c b + k (c > 0) are
one half-space, one row keyed by its primitive integer normal
(``_canonical_row``). Every row is in the support universe; the walk
learns which of them are implied (``fanwalk``), so building the set costs
no LP.

Coherence is one ``polytope.lp_minima`` over the assessments. Natural
extension evaluates the lower envelope of the credal set at any gamble; on
this layer it is a minimum over the oracle's vertex set, enumerated and
scaled to integer rows once per model and cached, so a warm query is an
integer scan of those rows. Both paths keep the oracle's small-instance
guards; the structured engines exist precisely to avoid them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .cones import SupportUniverse
from .exactla import ONE, ZERO, Record, _int_rows, _min_dot, _primitive, rat, vec

__all__ = [
    "OutcomeSpace",
    "Gamble",
    "Assessment",
    "LowerPrevision",
    "CoherenceReport",
    "AssessmentCheck",
    "IncoherenceError",
    "SchemaError",
    "build_credal_hrep",
    "is_coherent",
    "natural_extension",
    "lower_prevision_from_json",
    "parse_gamble",
]


class IncoherenceError(ValueError):
    """Operation requires a coherent lower prevision."""


class SchemaError(ValueError):
    """A model document violates the input schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class OutcomeSpace(Record):
    """Finite possibility space with named outcomes (order is significant:
    it fixes vector coordinates)."""

    __slots__ = ("names",)

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("outcome space must be nonempty")
        if any(not isinstance(n, str) or not n for n in names):
            raise ValueError("outcome names must be nonempty strings")
        if any(n.encode(errors="replace").decode() != n for n in names):
            raise ValueError("outcome names must encode as UTF-8")
        if len(set(names)) != len(names):
            raise ValueError("duplicate outcome names")
        self.names = names

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown outcome {name!r}") from None


class Gamble(Record):
    """Real-valued map on an outcome space, stored as an exact vector."""

    __slots__ = ("space", "values")

    def __init__(self, space: OutcomeSpace, values):
        values = vec(values)
        if len(values) != space.n:
            raise ValueError("gamble length does not match the outcome space")
        self.space, self.values = space, values

    @classmethod
    def indicator(cls, space: OutcomeSpace, members) -> "Gamble":
        idx = {m if isinstance(m, int) else space.index(m) for m in members}
        if not idx <= set(range(space.n)):
            raise ValueError("indicator members out of range")
        return cls(space, tuple(ONE if i in idx else ZERO for i in range(space.n)))

    def __neg__(self):
        return Gamble(self.space, tuple(-a for a in self.values))

    def is_constant(self) -> bool:
        return all(a == self.values[0] for a in self.values)


class Assessment(Record):
    """One accepted bound: the gamble's lower prevision."""

    __slots__ = ("gamble", "lower")

    def __init__(self, gamble: Gamble, lower):
        self.gamble = gamble
        self.lower = rat(lower)


class LowerPrevision(Record):
    """Finitely many assessments on a common outcome space.

    Constant gambles are rejected: an assessment on a constant is either
    vacuous or contradictory and has no facet normal, so it cannot take part
    in the fan machinery. At most one assessment per distinct gamble. That
    check and the hash, built once as the caches' key, read integer ratios.
    """

    __slots__ = ("space", "assessments", "_hash")

    def __init__(self, space: OutcomeSpace, assessments):
        assessments = tuple(assessments)
        seen = {}  # a gamble's integer ratios -> its bound's
        for a in assessments:
            if a.gamble.space != space:
                raise ValueError("assessment on a different outcome space")
            if a.gamble.is_constant():
                raise ValueError("assessment on a constant gamble is not representable")
            if (key := tuple([v.as_integer_ratio() for v in a.gamble.values])) in seen:
                raise ValueError("two assessments on the same gamble")
            seen[key] = a.lower.as_integer_ratio()
        self.space, self.assessments = space, assessments
        self._hash = hash((space, tuple(seen.items())))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_bounds(cls, space: OutcomeSpace, lower=(), upper=()) -> "LowerPrevision":
        """Build from (gamble, bound) pairs; upper bounds are converted at
        once through conjugacy: an upper bound u on f is the lower bound -u
        on -f."""
        out = []
        for g, b in lower:
            g = g if isinstance(g, Gamble) else Gamble(space, g)
            out.append(Assessment(g, b))
        for g, b in upper:
            g = g if isinstance(g, Gamble) else Gamble(space, g)
            out.append(Assessment(-g, -rat(b)))
        return cls(space, tuple(out))


def _canonical_row(f, b):
    """The half-space p . f >= b of the simplex in one form: on p . 1 = 1,
    f and b shift and scale together to f's primitive integer normal
    (``exactla._primitive``), the row's key, and a Fraction bound. Rows of
    one half-space share a key, and an indicator row keeps its form."""
    row, d, k, g = _primitive(f)
    return row, Fraction(b.numerator * d - k * b.denominator, b.denominator * g)


CACHE_SIZE = 64  # models per cache; the least recently used are evicted


@lru_cache(maxsize=CACHE_SIZE)
def build_credal_hrep(lp: LowerPrevision):
    """The credal set as one ``polytope.HPolytope``, plus its support universe.

    One row per half-space, keyed by _canonical_row, at its tightest bound:
    the assessments' rows in order, then the unassessed outcomes'. The
    universe is every row, plus the constant; the walk drops the rows it
    finds implied (``fanwalk``).
    """
    from .polytope import HPolytope
    n = lp.space.n
    rows: dict = {}
    for a in lp.assessments:
        f, b = _canonical_row(a.gamble.values, a.lower)
        rows[f] = max(b, rows.get(f, b))
    for x in range(n):
        e_x, b = _canonical_row(tuple(int(y == x) for y in range(n)), ZERO)
        rows[e_x] = max(b, rows.get(e_x, b))
    den = math.lcm(*(b.denominator for b in rows.values()))
    h = HPolytope(n, rows, [b.numerator * (den // b.denominator) for b in rows.values()], den)
    return h, SupportUniverse([*rows, (0,) * n])  # the constant is the zero row


class AssessmentCheck(NamedTuple):
    lower: object
    attained: object  # exact minimum over the credal set, None when empty

    @property
    def tight(self) -> bool:
        return self.attained == self.lower


class CoherenceReport(NamedTuple):
    coherent: bool
    empty: bool
    checks: tuple

    def failures(self):
        return tuple(c for c in self.checks if c.attained is None or not c.tight)


def is_coherent(lp: LowerPrevision) -> CoherenceReport:
    """Envelope check: the credal set must be nonempty and every assessed
    bound must equal the exact minimum of its gamble over the set, all from
    one ``lp_minima``. A bound strictly below the minimum is not attained
    (the assessment is too weak to be an envelope value); a bound above
    would empty the set."""
    from .polytope import EmptyPolytopeError, lp_minima
    h, _ = build_credal_hrep(lp)
    try:
        attained = lp_minima(h, [a.gamble.values for a in lp.assessments])
        empty = False
    except EmptyPolytopeError:
        attained, empty = [None] * len(lp.assessments), True
    checks = tuple(AssessmentCheck(a.lower, v) for a, v in zip(lp.assessments, attained))
    return CoherenceReport(not empty and all(c.tight for c in checks), empty, checks)


@lru_cache(maxsize=CACHE_SIZE)
def _credal_vertices(lp: LowerPrevision):
    """The coherence report and, for a coherent model, the vertex set the
    natural extension minimises over as (d, integer rows), once per model."""
    from .polytope import vertices_bruteforce
    report = is_coherent(lp)
    vs = vertices_bruteforce(build_credal_hrep(lp)[0]) if report.coherent else ()
    return _int_rows(v.point for v in vs), report


def natural_extension(lp: LowerPrevision, f):
    """Exact lower envelope value min {p . f : p in the credal set}.

    Defined here only for coherent lp (IncoherenceError otherwise); the
    minimum is an integer scan of the vertex rows, scaled once per model and
    cached next to the coherence report."""
    scaled, report = _credal_vertices(lp)
    if not report.coherent:
        raise IncoherenceError("natural extension requires a coherent lower prevision"
                               + (" (empty credal set)" if report.empty else ""))
    v = vec(f)
    if len(v) != lp.space.n:
        raise ValueError("gamble length does not match the outcome space")
    return _min_dot(scaled, v)


# ----------------------------------------------------------------- JSON

_RAT_LITERAL = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def _schema_rat(value, path: str):
    # strict literal form: Fraction's own syntax is looser (decimals,
    # exponents, surrounding whitespace, non-ASCII digits), so the schema
    # pins a model's numbers to ASCII "p/q" or "p" end to end
    if not isinstance(value, str) or not _RAT_LITERAL.fullmatch(value):
        raise SchemaError(path, f"expected a rational like '1/2' or '-3', got {value!r}")
    try:
        return rat(value)
    except ValueError:  # more digits than Python's int() converts
        raise SchemaError(
            path, f"rational literal has too many digits ({len(value)} characters)") from None


def _schema_outcomes(obj, path: str) -> OutcomeSpace:
    names = obj.get("outcomes")
    if not isinstance(names, list) or not names:
        raise SchemaError(f"{path}.outcomes", "required: nonempty list of outcome names")
    try:
        return OutcomeSpace(names)
    except ValueError as exc:
        raise SchemaError(f"{path}.outcomes", str(exc)) from None


def parse_gamble(obj, space: OutcomeSpace, path: str = "gamble") -> Gamble:
    """Gamble from a JSON mapping {outcome: rational string}; every outcome
    must be present. Also accepts {'values': {...}}."""
    if isinstance(obj, dict) and set(obj) == {"values"}:
        obj = obj["values"]
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a mapping from outcome to rational string")
    missing = [x for x in space.names if x not in obj]
    if missing:
        raise SchemaError(path, f"missing outcomes: {missing}")
    unknown = [x for x in obj if x not in space.names]
    if unknown:
        raise SchemaError(path, f"unknown outcomes: {unknown}")
    return Gamble(space, tuple(_schema_rat(obj[x], f"{path}.{x}") for x in space.names))


def lower_prevision_from_json(obj) -> LowerPrevision:
    """Parse the lower-prevision model document.

    Shape: {"type": "lower_prevision", "outcomes": [...], "assessments":
    [{"gamble": {...} | "event": [...], "lower": "p/q" and/or "upper":
    "p/q"}, ...]}. Upper bounds convert through conjugacy immediately.
    """
    if not isinstance(obj, dict):
        raise SchemaError("$", "model document must be an object")
    if obj.get("type", "lower_prevision") != "lower_prevision":
        raise SchemaError("$.type", f"expected 'lower_prevision', got {obj.get('type')!r}")
    space = _schema_outcomes(obj, "$")
    raw = obj.get("assessments")
    if not isinstance(raw, list):
        raise SchemaError("$.assessments", "required: list of assessments")
    lower, upper = [], []
    for i, entry in enumerate(raw):
        path = f"$.assessments[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "assessment must be an object")
        has_gamble = "gamble" in entry
        has_event = "event" in entry
        if has_gamble == has_event:
            raise SchemaError(path, "exactly one of 'gamble' or 'event' is required")
        if has_gamble:
            g = parse_gamble(entry["gamble"], space, f"{path}.gamble")
        else:
            ev = entry["event"]
            if (
                not isinstance(ev, list)
                or not ev
                or any(x not in space.names for x in ev)  # names, so hashable
                or len(set(ev)) != len(ev)
            ):
                raise SchemaError(f"{path}.event", "expected a nonempty list of distinct outcomes")
            g = Gamble.indicator(space, ev)
        if "lower" not in entry and "upper" not in entry:
            raise SchemaError(path, "at least one of 'lower'/'upper' is required")
        if "lower" in entry:
            lower.append((g, _schema_rat(entry["lower"], f"{path}.lower")))
        if "upper" in entry:
            upper.append((g, _schema_rat(entry["upper"], f"{path}.upper")))
    try:
        return LowerPrevision.from_bounds(space, lower, upper)
    except ValueError as exc:
        raise SchemaError("$.assessments", str(exc)) from None
