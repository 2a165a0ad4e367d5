"""Lower previsions, their credal sets, and natural extension.

A lower prevision assigns a supremum acceptable buying price to each of
finitely many gambles (real-valued maps on a finite outcome space). Its
credal set is the polytope of probability mass functions dominating every
assessment:

    p . f >= lpr(f)   for each assessed gamble f,
    p . 1_x >= 0      for each outcome x,
    p . 1   == 1,

built once per model, on ints alone from the integer ratios the model
keeps, as one integer ``polytope.HPolytope``. The probability-one equality
makes the constant-one direction lineality in every normal cone, so
p . f >= b and p . (c f + k 1) >= c b + k (c > 0) are one half-space, one
row keyed by its primitive integer normal. Every row is in the support
universe; the walk learns which are implied (``fanwalk``), so no LP runs.

Coherence and natural extension read one walk (``fanwalk.walk``) of the
record per model: an assessment is coherent when its row is tight at some
vertex (Walley 1991, 3.3), and the walk reports the rows tight at none, so
a coherent model scans no vertex; natural extension scans the vertex rows.
Both keep the walk's seed LP's small-instance guards; the structured
engines exist precisely to avoid them.
"""

from __future__ import annotations

import math
import re
from functools import cache, lru_cache
from typing import NamedTuple

from .cones import support_universe
from .exactla import ONE, ZERO, Record, _int_rows, _min_dot, rat, vec

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
    in the fan machinery. At most one assessment per distinct gamble. _ints
    keeps (a gamble's integer ratios, its bound's) per assessment: those
    checks, the hash, built once, and ``build_credal_hrep`` read them.
    """

    __slots__ = ("space", "assessments", "_ints", "_hash")

    def __init__(self, space: OutcomeSpace, assessments):
        assessments = tuple(assessments)
        seen = {}  # a gamble's integer ratios -> its bound's
        for a in assessments:
            if a.gamble.space is not space and a.gamble.space != space:
                raise ValueError("assessment on a different outcome space")
            key = tuple([v.as_integer_ratio() for v in a.gamble.values])
            if key.count(key[0]) == len(key):
                raise ValueError("assessment on a constant gamble is not representable")
            if key in seen:
                raise ValueError("two assessments on the same gamble")
            seen[key] = a.lower.as_integer_ratio()
        self.space, self.assessments, self._ints = space, assessments, tuple(seen.items())
        self._hash = hash((space, self._ints))

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


CACHE_SIZE = 64  # models per cache; the least recently used are evicted


def _row(entry) -> tuple:
    """An assessment's row on the record from its ``LowerPrevision._ints``
    entry (f's ratios, b's): f's ints d f over their lcm denominator d, less
    their least entry k, over their gcd g, at (d b - k) / g as (p, q > 0)."""
    ratios, (bn, bd) = entry
    d = math.lcm(*[q for _, q in ratios])
    ints = [p * (d // q) for p, q in ratios]
    k = min(ints)
    g = math.gcd(*[a - k for a in ints])  # not 0: no assessed gamble is constant
    return tuple([(a - k) // g for a in ints]), (bn * d - k * bd, bd * g)


@lru_cache(maxsize=CACHE_SIZE)
def build_credal_hrep(lp: LowerPrevision):
    """The credal set as one ``polytope.HPolytope``, plus its support universe.

    One row per half-space at its tightest bound: the assessments' in order,
    as ``_row`` writes them, then the unassessed unit rows (e_x, 0), at
    n = 1 the zero row at -1. The universe is every row and the constant.
    """
    from .polytope import HPolytope
    n = lp.space.n
    rows: dict = {}  # key -> (p, q), its tightest bound p / q so far, q > 0
    for f, b in map(_row, lp._ints):
        rows[f] = b if (old := rows.get(f)) is None or b[0] * old[1] > old[0] * b[1] else old
    for x in range(n):  # p(x) >= 0; at n = 1, p(x) = 1 makes e_x the constant
        e_x, b = (tuple([int(y == x) for y in range(n)]), (0, 1)) if n > 1 else ((0,), (-1, 1))
        rows[e_x] = b if (old := rows.get(e_x)) is None or b[0] * old[1] > old[0] * b[1] else old
    den = math.lcm(*[q // math.gcd(p, q) for p, q in rows.values()])
    h = HPolytope(n, rows, [p * den // q for p, q in rows.values()], den)
    return h, support_universe([*rows, (0,) * n])  # the constant is the zero row


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


@lru_cache(maxsize=CACHE_SIZE)
def _credal_vertices(lp: LowerPrevision):
    """(a call scaling the walk's vertex set by ``exactla._int_rows`` once,
    the coherence report) per model, from one ``fanwalk.walk``: an assessment
    whose row (``_row``) is not loose and at its own bound attains it, and
    only the others scan the rows. An empty record is the seed LP's
    EmptyPolytopeError, with no rows; a walk with a wall open may miss
    vertices, and is refused (RuntimeError)."""
    from .fanwalk import walk
    from .polytope import EmptyPolytopeError
    h, universe = build_credal_hrep(lp)
    try:
        graph = walk(h, universe)
    except EmptyPolytopeError:
        return None, CoherenceReport(False, True, tuple(AssessmentCheck(a.lower, None)
                                                        for a in lp.assessments))
    if graph.incomplete_walls:
        raise RuntimeError("incomplete fan: the walk left a wall open; vertices may be missing")
    scaled, checks = cache(lambda: _int_rows(graph.vertices)), []
    for a, (f, (p, q)) in zip(lp.assessments, map(_row, lp._ints)):
        tight = (i := h.rows.index(f)) not in graph.loose_rows and p * h.den == h.bounds[i] * q
        checks.append(AssessmentCheck(a.lower, a.lower if tight else
                                      _min_dot(scaled(), a.gamble.values)))
    return scaled, CoherenceReport(all(c.tight for c in checks), False, tuple(checks))


def is_coherent(lp: LowerPrevision) -> CoherenceReport:
    """Envelope check: the credal set is nonempty and each assessed bound
    equals its gamble's minimum over it, read off the rows the walk finds
    tight, with no vertex scan on a coherent model (``_credal_vertices``). A
    model with no assessments is coherent, with no walk and no guard."""
    if not lp.assessments:
        return CoherenceReport(True, False, ())
    return _credal_vertices(lp)[1]


def natural_extension(lp: LowerPrevision, f):
    """Exact lower envelope value min {p . f : p in the credal set}.

    Defined here only for coherent lp (IncoherenceError otherwise); the
    minimum is an integer scan of the walk's vertex rows, scaled on the
    model's first query and kept next to the coherence report."""
    scaled, report = _credal_vertices(lp)
    if not report.coherent:
        raise IncoherenceError("natural extension requires a coherent lower prevision"
                               + (" (empty credal set)" if report.empty else ""))
    v = vec(f)
    if len(v) != lp.space.n:
        raise ValueError("gamble length does not match the outcome space")
    return _min_dot(scaled(), v)


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
