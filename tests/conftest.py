"""Shared constructors and fixtures for the test suite.

These build H-representations by hand, independent of the package's own
model-to-polytope builders, so lower layers are testable on their own and
the builders themselves can be cross-checked against them.
"""

import itertools
import math

import pytest
from hypothesis import strategies as st

from cone_calculus import fraction_canonical_row, integer_row, ones, unit, universe_of
from credalfans import fanwalk
from credalfans.exactla import rat, vec
from credalfans.polytope import HPolytope

Q = rat


@pytest.fixture(autouse=True)
def fresh_walks():
    """Each test starts with no walk kept (``fanwalk.walk`` keeps its latest
    graphs), so a spy on the walk's steps sees a walk run."""
    fanwalk.walk.cache_clear()


def open_first_wall(monkeypatch):
    """Make ``fanwalk.neighbor_candidates`` find no neighbour across the
    first wall it is asked about, and across that wall alone, with no walk
    or coherence report kept. Returns a list that holds that wall, (node
    key, generator), once asked."""
    from credalfans import credal

    real, first = fanwalk.neighbor_candidates, []

    def candidates(tab, dropped, table):
        wall = (tab.node.gens, dropped)
        if not first:
            first.append(wall)
        return () if wall == first[0] else real(tab, dropped, table)

    monkeypatch.setattr(fanwalk, "neighbor_candidates", candidates)
    fanwalk.walk.cache_clear()
    credal._credal_vertices.cache_clear()
    return first


def hrep(n, rows):
    """The credal set of the rows (f, b), meaning p . f >= b, with p . 1 = 1
    implied, as the package's record: each row keyed by its primitive
    integer normal at its tightest bound, in the order first seen, the
    bounds over their least common denominator."""
    merged = {}
    for f, b in rows:
        key, c = integer_row(*fraction_canonical_row(vec(f), Q(b)))
        merged[key] = max(c, merged.get(key, c))
    den = math.lcm(*(b.denominator for b in merged.values()))
    return HPolytope(n, merged, [b.numerator * (den // b.denominator) for b in merged.values()], den)


def fraction_rows(h):
    """h's rows read back as (normal, bound) pairs of Fractions."""
    return [(vec(f), Q(b) / h.den) for f, b in zip(h.rows, h.bounds)]


def ind(n, members):
    """0/1 indicator vector of a set of outcome indices."""
    return tuple(Q(1) if i in members else Q(0) for i in range(n))


def interval_hrep(lows, ups):
    """Probability-interval H-rep: lower rows on singleton indicators,
    upper rows on complement indicators, masses summing to one."""
    n = len(lows)
    rows = [(unit(n, i), Q(lows[i])) for i in range(n)]
    for i in range(n):
        rows.append((ind(n, set(range(n)) - {i}), 1 - Q(ups[i])))
    return hrep(n, rows)


def interval_universe(n):
    vs = [unit(n, i) for i in range(n)]
    vs += [ind(n, set(range(n)) - {i}) for i in range(n)]
    vs.append(ones(n))
    return universe_of(vs)


def lowprob_hrep(n, values):
    """H-rep of a lower probability: one row per proper nonempty event.

    values maps frozenset -> rational lower bound; missing events default
    to zero.
    """
    rows = []
    for r in range(1, n):
        for s in itertools.combinations(range(n), r):
            rows.append((ind(n, set(s)), Q(values.get(frozenset(s), 0))))
    return hrep(n, rows)


def event_universe(n):
    vs = []
    for r in range(1, n):
        for s in itertools.combinations(range(n), r):
            vs.append(ind(n, set(s)))
    vs.append(ones(n))
    return universe_of(vs)


SUPERMOD3 = {
    frozenset({0}): Q("1/10"),
    frozenset({1}): Q("1/10"),
    frozenset({2}): Q("1/10"),
    frozenset({0, 1}): Q("1/2"),
    frozenset({0, 2}): Q("1/2"),
    frozenset({1, 2}): Q("1/2"),
}


def coherent_intervals(rng, n, den=12):
    """Random reachable probability intervals: sample around a random
    distribution, then tighten each bound to the reachable envelope."""
    while True:
        weights = [rng.randint(1, den) for _ in range(n)]
        total = sum(weights)
        center = [Q(w) / total for w in weights]
        lows = [max(Q(0), c - Q(rng.randint(0, den)) / (4 * den)) for c in center]
        ups = [min(Q(1), c + Q(rng.randint(0, den)) / (4 * den)) for c in center]
        if sum(lows) <= 1 <= sum(ups):
            break
    sl, su = sum(lows), sum(ups)
    tight_l = [max(lows[i], 1 - (su - ups[i])) for i in range(n)]
    tight_u = [min(ups[i], 1 - (sl - lows[i])) for i in range(n)]
    return tight_l, tight_u


def belief_masses(rng, n, den=24):
    """Random belief function given by a Moebius mass assignment: nonneg
    masses on nonempty events summing to one. L(A) = mass inside A is
    infinitely monotone, hence 2-monotone."""
    events = []
    for r in range(1, n + 1):
        events.extend(frozenset(s) for s in itertools.combinations(range(n), r))
    raw = [rng.randint(0, den) for _ in events]
    while sum(raw) == 0:
        raw = [rng.randint(0, den) for _ in events]
    total = sum(raw)
    mass = {e: Q(w) / total for e, w in zip(events, raw)}
    values = {}
    for r in range(1, n):
        for s in itertools.combinations(range(n), r):
            a = frozenset(s)
            values[a] = sum((m for e, m in mass.items() if e <= a), Q(0))
    return values


def quadratic_lowprob(rng, n, wmax=5):
    """Strictly supermodular game L(A) = (sum of weights in A)^2 scaled to
    L(full) = 1; positive weights make every incomparable inequality
    strict."""
    w = [rng.randint(1, wmax) for _ in range(n)]
    total = sum(w)
    values = {}
    for r in range(1, n):
        for s in itertools.combinations(range(n), r):
            part = sum(w[i] for i in s)
            values[frozenset(s)] = Q(part * part) / (total * total)
    return values


def random_gamble(rng, n, den=12, lo=-3, hi=6):
    return tuple(Q(rng.randint(lo * den, hi * den)) / den for _ in range(n))


def coherentify_lowprob(n, values):
    """Tighten every event's bound to its attained minimum over the credal
    set, making each row of the H-rep tight somewhere (None if empty)."""
    import itertools as _it

    from credalfans.polytope import lp_min, vertices_bruteforce

    h = lowprob_hrep(n, values)
    if not vertices_bruteforce(h):
        return None
    out = {}
    for r in range(1, n):
        for s in _it.combinations(range(n), r):
            val, _ = lp_min(h, ind(n, set(s)))
            out[frozenset(s)] = val
    return out


# ------------------------------------------------------------ strategies


def tied_gambles(n):
    """Gambles on n outcomes whose entries come from a small drawn pool of
    rationals in [-3, 3] with denominators up to 12: ties, negative entries
    and mixed denominators are common, and a pool of one is a constant."""
    pool = st.lists(st.fractions(-3, 3, max_denominator=12), min_size=1, max_size=n)
    return pool.flatmap(lambda values: st.tuples(*[st.sampled_from(values)] * n))

GRID = 720


def on_grid(k):
    return Q(k) / GRID


@st.composite
def assessed_rows(draw):
    """(n, rows): a model on n outcomes as lower-bound rows (gamble, bound)
    with distinct non-constant gambles, drawn from three families whose
    bounds sit on the 1/720 grid and often tie. Empty and incoherent models
    are included.

    * interval bounds around the uniform pmf, an upper bound written as a
      lower row on minus the indicator; a shift of all lower bounds can
      empty the set;
    * lower envelopes of one to three pmfs on a few integer gambles, some
      bounds moved one step of 1/12 off the envelope;
    * lower probabilities with a bound on every proper event.
    """
    family = draw(st.sampled_from(("interval", "envelope", "lowprob")))
    if family == "interval":
        n = draw(st.integers(2, 5))
        step = st.sampled_from((0, 36, 72, 144))
        shift = draw(st.sampled_from((0, 0, 0, 120)))
        base = GRID // n
        rows = [(ind(n, {x}), on_grid(base + shift - draw(step))) for x in range(n)]
        rows += [(tuple(-a for a in ind(n, {x})), -on_grid(base + draw(step))) for x in range(n)]
        return n, rows
    if family == "envelope":
        n = draw(st.integers(2, 4))
        weights = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
        pmfs = [tuple(Q(w) / sum(ws) for w in ws)
                for ws in draw(st.lists(weights, min_size=1, max_size=3))]
        gamble = st.tuples(*[st.integers(-2, 3)] * n).filter(lambda g: len(set(g)) > 1)
        rows = []
        for g in draw(st.lists(gamble, min_size=1, max_size=5, unique=True)):
            low = min(sum(Q(a) * p for a, p in zip(g, pmf)) for pmf in pmfs)
            rows.append((tuple(Q(a) for a in g), low + on_grid(draw(st.sampled_from((0, 0, 0, -60, 60))))))
        return n, rows
    n = draw(st.integers(2, 4))
    level = st.sampled_from((0, 90, 180, 270, 360))
    return n, [(ind(n, set(s)), on_grid(draw(level) * len(s) // 2))
               for r in range(1, n) for s in itertools.combinations(range(n), r)]


def rows_hrep(n, rows):
    """The credal set of assessed_rows by hand: the rows, a nonnegativity
    row per outcome, masses summing to one."""
    rows = list(rows) + [(unit(n, x), Q(0)) for x in range(n)]
    return hrep(n, rows)
