"""Lower previsions, their credal sets, and natural extension.

A lower prevision assigns a supremum acceptable buying price to each of
finitely many gambles (real-valued maps on a finite outcome space). Its
credal set is the polytope of probability mass functions dominating every
assessment:

    p . f >= lpr(f)   for each assessed gamble f,
    p . 1_x >= 0      for each outcome x (unless already implied),
    p . 1   == 1.

The probability-one equality makes the constant-one direction lineality in
every normal cone, and p . f >= b and p . (c f + k 1) >= c b + k (c > 0)
one half-space, kept as one row: f shifted to least entry 0, then scaled to
first nonzero entry 1. Only an outcome whose indicator no assessment covers
costs an LP: if the other rows imply p(x) >= 0, 1_x stays out of the support
universe, as a row never tight on a facet generates no MESC wall.

Coherence is one ``polytope.lp_minima`` over the assessments. Natural
extension evaluates the lower envelope of the credal set at any gamble; on
this layer it is a minimum over the vertex set from the brute-force oracle,
enumerated once per model and cached, so a warm query is a scan of that
set. Both paths keep the oracle's small-instance guards; the structured
engines exist precisely to avoid them.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .cones import SupportUniverse
from .exactla import ZERO, Record, dot, indicator, ones, rat, unit, vec

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
        if len(set(names)) != len(names):
            raise ValueError("duplicate outcome names")
        if any(not isinstance(n, str) or not n for n in names):
            raise ValueError("outcome names must be nonempty strings")
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
        return cls(space, indicator(space.n, idx))

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
    in the fan machinery. At most one assessment per distinct gamble. The
    hash, the key of the per-model caches, is computed once.
    """

    __slots__ = ("space", "assessments", "_hash")

    def __init__(self, space: OutcomeSpace, assessments):
        assessments = tuple(assessments)
        seen = set()
        for a in assessments:
            if a.gamble.space != space:
                raise ValueError("assessment on a different outcome space")
            if a.gamble.is_constant():
                raise ValueError("assessment on a constant gamble is not representable")
            if a.gamble.values in seen:
                raise ValueError("two assessments on the same gamble")
            seen.add(a.gamble.values)
        self.space, self.assessments = space, assessments
        self._hash = hash((space, assessments))

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
    f and b shift together by f's least entry, then scale so the first
    nonzero entry is 1. Rows describing one half-space then share a key,
    and an indicator row keeps its form."""
    low = min(f)
    f = [a - low for a in f]
    lead = next(a for a in f if a != 0)
    return tuple(a / lead for a in f), (b - low) / lead


def _nonneg_row_implied(x: int, other_rows, n: int) -> bool:
    """Is p(x) >= 0 implied by the listed rows plus total mass one? One LP:
    the minimum of p(x) over that relaxation is at least 0. A relaxation
    that is empty, or on which p(x) is unbounded below, implies nothing."""
    from .polytope import EmptyPolytopeError, HPolytope, UnboundedLpError, lp_min
    relaxed = HPolytope(n, tuple(other_rows), ((ones(n), 1),))
    try:
        return lp_min(relaxed, unit(n, x)).value >= 0
    except (EmptyPolytopeError, UnboundedLpError):
        return False


CACHE_SIZE = 64  # models per cache; the least recently used are evicted


@lru_cache(maxsize=CACHE_SIZE)
def build_credal_hrep(lp: LowerPrevision):
    """H-representation of the credal set plus its support universe.

    One row per half-space, keyed by _canonical_row (the shift-and-scale
    rule), each key at its tightest bound; the universe is the assessment
    keys and the constant. Every p(x) >= 0 merges into its key, and one LP
    (_nonneg_row_implied over the other rows) decides whether 1_x joins the
    universe, only where no assessment covers 1_x. Rows keep the
    assessments' order, then the unassessed outcomes'.
    """
    from .polytope import HPolytope
    n = lp.space.n
    rows: dict = {}
    for a in lp.assessments:
        f, b = _canonical_row(a.gamble.values, a.lower)
        rows[f] = max(b, rows.get(f, b))
    universe = set(rows) | {ones(n)}
    units = [unit(n, x) for x in range(n)]
    for e_x in units:
        rows[e_x] = max(ZERO, rows.get(e_x, ZERO))
    universe.update(e_x for x, e_x in enumerate(units) if e_x not in universe and not
                    _nonneg_row_implied(x, [r for r in rows.items() if r[0] != e_x], n))
    h = HPolytope(n, tuple(rows.items()), ((ones(n), 1),))
    return h, SupportUniverse(tuple(sorted(universe)))


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
    natural extension minimises over, computed once per model."""
    from .polytope import vertices_bruteforce
    report = is_coherent(lp)
    vs = vertices_bruteforce(build_credal_hrep(lp)[0]) if report.coherent else ()
    return vs, report


def natural_extension(lp: LowerPrevision, f):
    """Exact lower envelope value min {p . f : p in the credal set}.

    Defined here only for coherent lp (IncoherenceError otherwise); the
    minimum is taken over the cached vertex set, next to which the
    coherence report is cached.
    """
    vs, report = _credal_vertices(lp)
    if not report.coherent:
        raise IncoherenceError(
            "natural extension requires a coherent lower prevision"
            + (" (empty credal set)" if report.empty else "")
        )
    v = vec(f)
    if len(v) != lp.space.n:
        raise ValueError("gamble length does not match the outcome space")
    return min(dot(v, vtx.point) for vtx in vs)


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
    if any(not isinstance(x, str) or not x for x in names):
        raise SchemaError(f"{path}.outcomes", "outcome names must be nonempty strings")
    if len(set(names)) != len(names):
        raise SchemaError(f"{path}.outcomes", "duplicate outcome names")
    return OutcomeSpace(tuple(names))


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
                or len(set(ev)) != len(ev)
                or any(x not in space.names for x in ev)
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
