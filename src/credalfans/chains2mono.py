"""Lower probabilities, 2-monotonicity, and the chain structure of their
extreme points.

A 2-monotone (supermodular) lower probability L satisfies

    L(A | B) + L(A & B) >= L(A) + L(B)

for all events. Its credal set then has a completely explicit extreme-point
structure. A chain is an order of the outcomes, a tuple of outcome indices
with the highest ranked first; telescoping L along its growing initial
segments yields an extreme point, and all extreme points arise this way.
The normal fan refines into the n! chain cones, the cone of an order being
spanned by the indicators of its proper initial segments (the upper level
sets of the gambles it holds), and two cones share a wall exactly when
their orders differ by one swap of consecutive outcomes.

Under this orientation the telescoped vertex puts the least mass where a
gamble decreasing along the order pays most, so the Choquet integral of
such a gamble equals its exact lower expectation.

Every kernel reads L off one table of ints over a common denominator,
indexed by event bitmask, which the model builds when it is constructed:
choquet and value read their levels on it, is_two_monotone checks local
inequalities on it once per model, and enumerate_extreme_2mono and
chain_graph walk the outcome orders on it, their vertices sharing its step
masses. The enumeration's tail rule: an order's masses below a prefix
depend only on the prefix set A, through the steps L(A | {x}) - L(A), so
the tails of each A with at most three outcomes left are built once. The
rule holds for any set function; 2-monotonicity makes the chain vertices
the extreme points.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple

from .cones import support_universe
from .credal import Gamble, LowerPrevision, OutcomeSpace, SchemaError, _schema_outcomes, _schema_rat
from .exactla import ZERO, Record, _scaled, rat, vec

__all__ = [
    "LowerProbability",
    "NotTwoMonotoneError",
    "TwoMonotoneReport",
    "as_lower_prevision",
    "is_two_monotone",
    "event_universe",
    "chain_graph",
    "enumerate_extreme_2mono",
    "choquet",
    "lower_probability_from_json",
]


class NotTwoMonotoneError(ValueError):
    """The operation requires a 2-monotone lower probability."""


class LowerProbability(Record):
    """Lower probability on all events of a finite space.

    table lists every proper nonempty event with its value; the empty event
    and the sure event are pinned to 0 and 1. Values must lie in [0, 1] and
    be monotone under inclusion. 2-monotonicity is a separate, stronger
    property checked by is_two_monotone. _ints = (V, d, steps): V[mask] =
    d L(event) as ints for every event by bitmask (outcome i is bit i), empty
    and sure included; steps (_step_table) and _report are built on first use.
    """

    __slots__ = ("space", "table", "_ints", "_report")

    def __init__(self, space: OutcomeSpace, table):
        n = space.n
        bit, full = {x: 1 << x for x in range(n)}, (1 << n) - 1
        first = {}  # event mask -> (its first frozenset, its value), in input order
        for e, v in table:
            fe = frozenset(e)
            if not fe <= bit.keys():
                raise ValueError("event outside the outcome space")
            a, v = sum(map(bit.__getitem__, fe)), rat(v)
            if a in first and first[a][1] != v:
                raise ValueError(f"conflicting values for event {sorted(fe)}")
            first.setdefault(a, (fe, v))
        if first.pop(0, (None, 0))[1] != 0:
            raise ValueError("the empty event must have value 0")
        if first.pop(full, (None, 1))[1] != 1:
            raise ValueError("the sure event must have value 1")
        missing = full - 1 - len(first)
        if missing:
            raise ValueError(f"{missing} proper events missing a value")
        d, values = _scaled([v for _, v in first.values()])
        table = [0] * full + [d]
        for a, v in zip(first, values):
            table[a] = v
        # covering-relation scan gives full monotonicity by transitivity
        for a, e in [(a, e) for a, (e, _) in first.items()] + [(full, range(n))]:
            for x in e:
                if table[a ^ bit[x]] > table[a]:
                    raise ValueError(
                        f"not monotone: dropping outcome {x} from {sorted(e)} raises the value")
        self.space, self._ints, self._report = space, (tuple(table), d, None), None
        # canonical order: by size, then as itertools.combinations lists them
        self.table = tuple(first[sum(c)] for r in range(1, n)
                           for c in itertools.combinations(bit.values(), r))

    def value(self, event):
        e = frozenset(x if isinstance(x, int) else self.space.index(x) for x in event)
        if not all(0 <= x < self.space.n for x in e):
            raise KeyError(e)
        table, d, _ = self._ints
        return Fraction(table[sum(1 << x for x in e)], d)

    def events(self):
        """Proper nonempty events in canonical order."""
        return tuple(e for e, _ in self.table)


def as_lower_prevision(lowprob: LowerProbability) -> LowerPrevision:
    """The same credal set expressed through indicator assessments."""
    sp = lowprob.space
    lows = [(Gamble.indicator(sp, e), v) for e, v in lowprob.table]
    return LowerPrevision.from_bounds(sp, lower=lows)


class TwoMonotoneReport(NamedTuple):
    ok: bool
    violator: tuple = None  # incomparable pair (A, B) breaking the inequality
    lhs: object = None  # L(A | B) + L(A & B)
    rhs: object = None  # L(A) + L(B)


def is_two_monotone(lowprob: LowerProbability) -> TwoMonotoneReport:
    """Exact supermodularity test by the n(n-1) 2^(n-3) local inequalities

        L(A | {x, y}) + L(A) >= L(A | {x}) + L(A | {y})   (x, y not in A)

    as integer comparisons on L's table. For a set function on all 2^n
    events, as L is with L(empty) = 0 and L(sure) = 1, these imply the
    inequality for every pair of events (Chateauneuf & Jaffray 1989). If
    one fails, a scan over all pairs in canonical order names the first
    violator (comparable pairs hold with equality, so it is incomparable).
    The report is kept with the model: one scan per model."""
    lowprob._report = lowprob._report or _local_scan(lowprob)  # a report is a nonempty tuple
    return lowprob._report


def _local_scan(lowprob: LowerProbability) -> TwoMonotoneReport:
    table, d, _ = lowprob._ints
    bits = [1 << x for x in range(lowprob.space.n)]
    if all(table[a | bx | by] + va >= table[a | bx] + table[a | by]
           for a, va in enumerate(table)
           for bx, by in itertools.combinations([b for b in bits if not a & b], 2)):
        return TwoMonotoneReport(True)
    events = [(e, sum(1 << x for x in e)) for e in lowprob.events()]
    for (a, ma), (b, mb) in itertools.combinations(events, 2):
        lhs = table[ma | mb] + table[ma & mb]
        rhs = table[ma] + table[mb]
        if lhs < rhs:
            return TwoMonotoneReport(False, (a, b), Fraction(lhs, d), Fraction(rhs, d))
    raise AssertionError("a failed local inequality is a violating pair")


def _step_table(lowprob: LowerProbability) -> tuple:
    """The n 2^(n-1) step masses L(A | {x}) - L(A) as steps[mask of A][x]
    (None for x in A), built once per model beside its integer table, one
    Fraction per distinct integer step, so that its vertices share them."""
    table, d, steps = lowprob._ints
    if steps is None:
        bits = [1 << x for x in range(lowprob.space.n)]
        mass = functools.cache(lambda v: Fraction(v, d))
        steps = tuple(tuple(None if a & bx else mass(table[a | bx] - va) for bx in bits)
                      for a, va in enumerate(table))
        lowprob._ints = (table, d, steps)
    return steps


@functools.lru_cache(maxsize=16)
def event_universe(n: int) -> tuple:
    """``cones.support_universe`` of every proper nonempty event's indicator,
    the chain fan's rays, and of the zero row, the sure event's: the constant;
    kept for the 16 latest n."""
    return support_universe([tuple(int(x in s) for x in range(n)) for r in range(1, n)
                             for s in itertools.combinations(range(n), r)] + [(0,) * n])


def chain_graph(lowprob: LowerProbability):
    """The chain fan as a MescGraph over event_universe(n): one node per
    outcome order, keyed by the universe indices of its proper initial
    segments, each read by bitmask from one list, with the vertex that
    telescopes the step table along them. The fan is complete and
    simplicial, so each wall bounds exactly two cones: the wall that drops
    an order's k-th prefix is shared with the order that swaps its k-th
    and (k+1)-th outcomes, and with no other. The edges are these swaps,
    each taken once, from the order that lists the pair ascending.
    Validity of the vertices (2-monotonicity) is the caller's concern."""
    from .fanwalk import MescGraph, MescNode
    n = lowprob.space.n
    steps = _step_table(lowprob)
    index = [None] * (1 << n)
    for k, v in enumerate(event_universe(n)):  # the sure event's is the zero row
        index[sum(1 << i for i, a in enumerate(v) if a) or (1 << n) - 1] = k
    keys, nodes = {}, []
    for order in itertools.permutations(range(n)):
        p, prefix, gens = [ZERO] * n, 0, []
        for x in order:
            p[x] = steps[prefix][x]
            prefix |= 1 << x
            gens.append(index[prefix])
        keys[order] = key = tuple(sorted(gens[:-1]))  # the sure event is no generator
        nodes.append(MescNode(key, tuple(p)))
    nodes.sort(key=lambda node: node.gens)
    edges = frozenset(frozenset({k, keys[o[:i] + (o[i + 1], o[i]) + o[i + 2:]]})
                      for o, k in keys.items() for i in range(n - 1) if o[i] < o[i + 1])
    return MescGraph(tuple(nodes), edges)


def enumerate_extreme_2mono(lowprob: LowerProbability) -> tuple:
    """Extreme points of a 2-monotone lower probability's credal set: a
    tuple of the distinct chain vertices, each at its first order in
    itertools.permutations order. Raises on non-2-monotone input with the
    violating pair. Each vertex is keyed by one int on V = d L: step mass
    V[A | {x}] - V[A] at bit w x, w = d.bit_length(); LowerProbability
    enforces monotonicity, so every step mass lies in [0, d] and no two
    fields overlap. Tail rule: below a prefix set A an order's fields and
    masses depend on A alone, so the table T(A) lists them per order of A's
    complement, in permutations order, as x's step before T(A | {x}) for
    each x not in A. A depth-first pass over the top n - 3 levels, lowest
    unused outcome first, emits each node's leaves from its memoised T(A)."""
    rep = is_two_monotone(lowprob)
    if not rep.ok:
        a, b = rep.violator
        raise NotTwoMonotoneError(f"not 2-monotone: events {sorted(a)} and {sorted(b)} give "
                                  f"{rep.lhs} < {rep.rhs}")
    n = lowprob.space.n
    steps = _step_table(lowprob)
    table, d, _ = lowprob._ints
    w = d.bit_length()
    moves = [(x, 1 << x, w * x) for x in range(n)]
    full, p, points = (1 << n) - 1, [ZERO] * n, {}
    tails = {full: ((0, ()),)}

    def tail(a):  # T(a): (key fields, flat (outcome, mass) pairs; short tails repeat one)
        if a not in tails:
            va, row = table[a], steps[a]
            tails[a] = tuple(((table[a | bx] - va) << shift | k,
                              ((x, row[x]) + (pairs or (x, row[x]) * 2))[:6])
                             for x, bx, shift in moves if not a & bx for k, pairs in tail(a | bx))
        return tails[a]

    def descend(a, key, left):
        if left <= 3:  # the node's leaves, from its tail table
            for k, (x, m, y, u, z, v) in tail(a):
                k |= key
                if k not in points:
                    p[x], p[y], p[z] = m, u, v
                    points[k] = tuple(p)
            return
        va, row = table[a], steps[a]
        for x, bx, shift in moves:
            if not a & bx:
                p[x] = row[x]
                descend(a | bx, key | (table[a | bx] - va) << shift, left - 1)

    descend(0, 0, n)
    return tuple(points.values())


def choquet(lowprob: LowerProbability, f):
    """Choquet integral of f against L: descending layer representation

        E(f) = v_m + sum_{j<m} (v_j - v_{j+1}) L(f >= v_j)

    over the distinct values v_1 > ... > v_m, in one pass down the ints
    g = e f sorted (exactla._scaled), each step weighted by its level's
    d L in the model's table, one Fraction over d e. Equals the exact lower
    expectation iff L is 2-monotone; on merely monotone L it can overshoot
    or undershoot the envelope value."""
    fv = vec(f)
    if len(fv) != lowprob.space.n:
        raise ValueError("gamble length does not match the outcome space")
    e, g = _scaled(fv)
    order = sorted(range(len(g)), key=g.__getitem__, reverse=True)
    table, d, _ = lowprob._ints
    level = total = 0
    for i, j in zip(order, order[1:]):
        level |= 1 << i
        total += (g[i] - g[j]) * table[level]
    return Fraction(g[order[-1]] * d + total, d * e)


def lower_probability_from_json(obj) -> LowerProbability:
    """Parse the lower-probability model document.

    Shape: {"type": "lower_probability", "outcomes": [...], "values":
    {"x1": "1/10", "x1|x2": "1/2", ...}} with one '|'-joined key per proper
    nonempty event, all of them present.
    """
    if not isinstance(obj, dict):
        raise SchemaError("$", "model document must be an object")
    if obj.get("type", "lower_probability") != "lower_probability":
        raise SchemaError("$.type", f"expected 'lower_probability', got {obj.get('type')!r}")
    space = _schema_outcomes(obj, "$")
    if any("|" in name for name in space.names):
        raise SchemaError("$.outcomes", "outcome names must not contain '|'")
    raw = obj.get("values")
    if not isinstance(raw, dict):
        raise SchemaError("$.values", "required: mapping from event key to rational")
    table = []
    for key, sval in raw.items():
        labels = key.split("|")
        if len(set(labels)) != len(labels) or any(x not in space.names for x in labels):
            raise SchemaError(f"$.values[{key!r}]", "event key must join distinct outcome names with '|'")
        table.append((frozenset(space.index(x) for x in labels), _schema_rat(sval, f"$.values[{key!r}]")))
    try:
        return LowerProbability(space, tuple(table))
    except ValueError as exc:
        raise SchemaError("$.values", str(exc)) from None
