"""Lower probabilities, 2-monotonicity, and the chain structure of their
extreme points.

A 2-monotone (supermodular) lower probability L satisfies

    L(A | B) + L(A & B) >= L(A) + L(B)

for all events. Its credal set then has a completely explicit extreme-point
structure: every maximal chain of events (equivalently, every ordering of
the outcomes) yields an extreme point by telescoping L along the chain, and
all extreme points arise this way. The associated normal fan refines into
at most n! simplicial cones, one per chain, with adjacency given by swapping
two consecutive outcomes.

Orientation convention used throughout: a chain's first event collects the
outcomes with the highest payoff, so the telescoped vertex puts the least
mass where a gamble decreasing along the chain pays most. Under this
convention the Choquet integral of such a gamble equals its exact lower
expectation, and the chain's cone is spanned by the indicators of its
proper initial segments (upper level sets).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cones import SupportUniverse
from .credal import Gamble, LowerPrevision, OutcomeSpace, SchemaError, _schema_outcomes, _schema_rat
from .exactla import ZERO, indicator, rat, vec
from .fanwalk import MescGraph, MescNode

__all__ = [
    "LowerProbability",
    "NotTwoMonotoneError",
    "TwoMonotoneReport",
    "EventChain",
    "as_lower_prevision",
    "is_two_monotone",
    "chain_vertex",
    "chain_fan",
    "chain_neighbors",
    "event_universe",
    "chain_graph",
    "enumerate_extreme_2mono",
    "choquet",
    "lower_probability_from_json",
]


class NotTwoMonotoneError(ValueError):
    """The operation requires a 2-monotone lower probability."""


def _event_key(e):
    return (len(e), tuple(sorted(e)))


@dataclass(frozen=True)
class LowerProbability:
    """Lower probability on all events of a finite space.

    table lists every proper nonempty event with its value; the empty event
    and the sure event are pinned to 0 and 1. Values must lie in [0, 1] and
    be monotone under inclusion. 2-monotonicity is a separate, stronger
    property checked by is_two_monotone.
    """

    space: OutcomeSpace
    table: tuple
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        n = self.space.n
        omega = frozenset(range(n))
        index = {}
        for e, v in self.table:
            fe = frozenset(e)
            if not fe <= omega:
                raise ValueError("event outside the outcome space")
            v = rat(v)
            if fe in index and index[fe] != v:
                raise ValueError(f"conflicting values for event {sorted(fe)}")
            index[fe] = v
        if index.pop(frozenset(), ZERO) != 0:
            raise ValueError("the empty event must have value 0")
        if index.pop(omega, rat(1)) != 1:
            raise ValueError("the sure event must have value 1")
        missing = (1 << n) - 2 - len(index)
        if missing:
            raise ValueError(f"{missing} proper events missing a value")
        index[frozenset()] = ZERO
        index[omega] = rat(1)
        # covering-relation scan gives full monotonicity by transitivity
        for e, v in index.items():
            for x in e:
                if index[e - {x}] > v:
                    raise ValueError(
                        f"not monotone: dropping outcome {x} from {sorted(e)} raises the value")
        table = tuple(sorted(((e, v) for e, v in index.items()
                              if e and e != omega), key=lambda t: _event_key(t[0])))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_index", index)

    def value(self, event):
        e = frozenset(x if isinstance(x, int) else self.space.index(x) for x in event)
        return self._index[e]

    def events(self):
        """Proper nonempty events in canonical order."""
        return tuple(e for e, _ in self.table)


def as_lower_prevision(lowprob: LowerProbability) -> LowerPrevision:
    """The same credal set expressed through indicator assessments."""
    sp = lowprob.space
    lows = [(Gamble.indicator(sp, e), v) for e, v in lowprob.table]
    return LowerPrevision.from_bounds(sp, lower=lows)


@dataclass(frozen=True)
class TwoMonotoneReport:
    ok: bool
    violator: tuple = None  # incomparable pair (A, B) breaking the inequality
    lhs: object = None  # L(A | B) + L(A & B)
    rhs: object = None  # L(A) + L(B)


def is_two_monotone(lowprob: LowerProbability) -> TwoMonotoneReport:
    """Exact supermodularity scan over incomparable event pairs (comparable
    pairs hold with equality); the first violator in canonical order is
    reported."""
    events = lowprob.events()
    for a, b in itertools.combinations(events, 2):
        if a <= b or b <= a:
            continue
        lhs = lowprob.value(a | b) + lowprob.value(a & b)
        rhs = lowprob.value(a) + lowprob.value(b)
        if lhs < rhs:
            return TwoMonotoneReport(False, (a, b), lhs, rhs)
    return TwoMonotoneReport(True)


@dataclass(frozen=True)
class EventChain:
    """Maximal increasing chain of events, one new outcome per step, ending
    at the sure event. The first event holds the outcome ranked highest."""

    sets: tuple

    def __post_init__(self):
        sets = tuple(frozenset(s) for s in self.sets)
        if not sets:
            raise ValueError("empty chain")
        n = len(sets[-1])
        if len(sets) != n:
            raise ValueError("chain must have one event per size 1..n")
        if sets[-1] != frozenset(range(n)):
            raise ValueError("chain must end at the sure event on outcomes 0..n-1")
        prev = frozenset()
        for k, s in enumerate(sets, start=1):
            if len(s) != k or not prev < s:
                raise ValueError("chain events must grow by one outcome per step")
            prev = s
        object.__setattr__(self, "sets", sets)

    @classmethod
    def from_permutation(cls, order) -> "EventChain":
        order = tuple(order)
        return cls(tuple(frozenset(order[: k + 1]) for k in range(len(order))))

    @property
    def n(self) -> int:
        return len(self.sets)


def chain_vertex(lowprob: LowerProbability, chain: EventChain):
    """Telescope L along the chain: the outcome added at step k receives
    mass L(A_k) - L(A_{k-1}). The point dominates L on every event when L
    is 2-monotone."""
    n = chain.n
    if n != lowprob.space.n:
        raise ValueError("chain on a different outcome space")
    p = [ZERO] * n
    prev_set, prev_val = frozenset(), ZERO
    for s in chain.sets:
        (x,) = s - prev_set
        val = lowprob.value(s)
        p[x] = val - prev_val
        prev_set, prev_val = s, val
    return tuple(p)


def chain_fan(n: int) -> tuple:
    """All n! maximal chains, in permutation order."""
    return tuple(EventChain.from_permutation(p) for p in itertools.permutations(range(n)))


def chain_neighbors(chain: EventChain) -> tuple:
    """The n-1 chains whose cones share a wall with this one: replace the
    event at one interior level by the other union of its neighbors, which
    swaps two consecutive outcomes."""
    sets = chain.sets
    n = chain.n
    out = []
    for i in range(n - 1):
        below = sets[i - 1] if i else frozenset()
        replaced = below | (sets[i + 1] - sets[i])
        out.append(EventChain(sets[:i] + (replaced,) + sets[i + 1 :]))
    return tuple(out)


def event_universe(n: int) -> SupportUniverse:
    """Indicators of every nonempty event: the rays of the chain fan plus
    the constant direction."""
    return SupportUniverse(tuple(
        indicator(n, s) for r in range(1, n + 1) for s in itertools.combinations(range(n), r)))


def chain_graph(lowprob: LowerProbability) -> MescGraph:
    """The chain fan as a MescGraph over event_universe(n): one node per
    chain, keyed by the universe indices of its proper events, and one
    edge per swap of two consecutive outcomes. Validity of the vertices
    (2-monotonicity) is the caller's concern."""
    n = lowprob.space.n
    universe = event_universe(n)
    uindex = {frozenset(i for i, a in enumerate(v) if a): k for k, v in enumerate(universe.vectors)}

    def key(chain):
        return tuple(sorted(uindex[s] for s in chain.sets[:-1]))

    nodes = {}
    edges = set()
    for chain in chain_fan(n):
        k = key(chain)
        nodes[k] = MescNode(k, chain_vertex(lowprob, chain))
        for nb in chain_neighbors(chain):
            edges.add(frozenset({k, key(nb)}))
    return MescGraph(tuple(nodes[k] for k in sorted(nodes)), frozenset(edges))


def enumerate_extreme_2mono(lowprob: LowerProbability) -> frozenset:
    """Extreme points of a 2-monotone lower probability's credal set: the
    chain vertices, deduplicated. Raises on non-2-monotone input with the
    violating pair."""
    rep = is_two_monotone(lowprob)
    if not rep.ok:
        a, b = rep.violator
        raise NotTwoMonotoneError(
            f"not 2-monotone: events {sorted(a)} and {sorted(b)} give "
            f"{rep.lhs} < {rep.rhs}")
    return frozenset(chain_vertex(lowprob, c) for c in chain_fan(lowprob.space.n))


def choquet(lowprob: LowerProbability, f):
    """Choquet integral of f against L: descending layer representation

        E(f) = v_m + sum_{j<m} (v_j - v_{j+1}) L(f >= v_j)

    over the distinct values v_1 > ... > v_m. Equals the exact lower
    expectation iff L is 2-monotone; on merely monotone L it can overshoot
    or undershoot the envelope value.
    """
    fv = f.values if isinstance(f, Gamble) else vec(f)
    n = lowprob.space.n
    if len(fv) != n:
        raise ValueError("gamble length does not match the outcome space")
    values = sorted(set(fv), reverse=True)
    total = values[-1]
    for j in range(len(values) - 1):
        level = frozenset(i for i in range(n) if fv[i] >= values[j])
        total += (values[j] - values[j + 1]) * lowprob.value(level)
    return total


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
