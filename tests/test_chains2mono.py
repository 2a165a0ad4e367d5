"""Lower probabilities and the chain structure of 2-monotone credal sets."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalfans import chains2mono, cli
from credalfans.chains2mono import (
    LowerProbability,
    NotTwoMonotoneError,
    TwoMonotoneReport,
    as_lower_prevision,
    chain_graph,
    choquet,
    enumerate_extreme_2mono,
    event_universe,
    is_two_monotone,
    lower_probability_from_json,
)
from credalfans.credal import OutcomeSpace, SchemaError, build_credal_hrep, natural_extension
from credalfans.exactla import _scaled
from credalfans.fanwalk import MescGraph, MescNode
from credalfans.polytope import lp_min, vertices_bruteforce

from cone_calculus import (
    Cone,
    adjacent_swaps,
    are_adjacent,
    chain_cone,
    dot,
    is_comonotone,
    reference_chain_vertex,
    reference_choquet,
    unit,
    universe_vectors,
)
from conftest import (
    SUPERMOD3,
    Q,
    belief_masses,
    lowprob_hrep,
    quadratic_lowprob,
    random_gamble,
    tied_gambles,
)

SP3 = OutcomeSpace(("x1", "x2", "x3"))
MODELS = Path(__file__).resolve().parent.parent / "models"

NONSUPER3 = {
    frozenset({0}): Q(0),
    frozenset({1}): Q(0),
    frozenset({2}): Q(0),
    frozenset({0, 1}): Q("3/4"),
    frozenset({0, 2}): Q(0),
    frozenset({1, 2}): Q("3/4"),
}


def lp3(values):
    return LowerProbability(SP3, tuple(values.items()))


def reference_is_two_monotone(lowprob):
    """The pair scan over all incomparable proper events in canonical order,
    on frozensets and Fractions, L read off the model's public table: the
    reference for the local test's verdict and for its first violator."""
    n = lowprob.space.n
    value = {**dict(lowprob.table), frozenset(): Q(0), frozenset(range(n)): Q(1)}
    for a, b in itertools.combinations(lowprob.events(), 2):
        if a <= b or b <= a:
            continue
        lhs = value[a | b] + value[a & b]
        rhs = value[a] + value[b]
        if lhs < rhs:
            return TwoMonotoneReport(False, (a, b), lhs, rhs)
    return TwoMonotoneReport(True)


def frozenset_scan(n, table):
    """The refusal LowerProbability gives table on n outcomes, or None, by
    the checks on a frozenset-keyed index of L: each event in input order,
    the sure event last, each outcome dropped in its frozenset's order. The
    reference for which violation the bitmask scan names."""
    omega, index = frozenset(range(n)), {}
    for e, v in table:
        fe = frozenset(e)
        if not fe <= omega:
            return "event outside the outcome space"
        if fe in index and index[fe] != v:
            return f"conflicting values for event {sorted(fe)}"
        index[fe] = v
    if index.pop(frozenset(), 0) != 0:
        return "the empty event must have value 0"
    if index.pop(omega, 1) != 1:
        return "the sure event must have value 1"
    if len(index) != 2 ** n - 2:
        return f"{2 ** n - 2 - len(index)} proper events missing a value"
    index[frozenset()], index[omega] = 0, 1
    for e, v in index.items():
        for x in e:
            if index[e - {x}] > v:
                return f"not monotone: dropping outcome {x} from {sorted(e)} raises the value"
    return None


def refusal(space, table):
    """The ValueError message LowerProbability(space, table) raises, or None."""
    try:
        LowerProbability(space, table)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def raw_tables(draw):
    """(n, table): grid values on n = 1..5 outcomes, not closed under
    inclusion, so most tables break monotonicity at several events. Each
    event lists its outcomes in a drawn order; some are listed twice at an
    equal or a conflicting value, some left out, the empty and sure events
    sometimes given; then the entries are shuffled."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    events = [tuple(draw(st.permutations(s))) for r in range(1, n)
              for s in itertools.combinations(range(n), r)]
    value = st.integers(0, k).map(lambda a: Fraction(a, k))
    table = [(e, draw(value)) for e in events if draw(st.integers(0, 30))]
    table += draw(st.lists(st.sampled_from(table), max_size=3)) if table else []
    table += draw(st.lists(st.tuples(st.sampled_from(events), value), max_size=2)) if events else []
    table += draw(st.lists(st.tuples(st.sampled_from([(), tuple(range(n))]),
                                     st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)])),
                           max_size=2))
    return n, tuple(draw(st.permutations(table)))


def chain_keys(n):
    """{order: the universe indices of its chain cone's generators}, sorted
    as the universe is."""
    uindex = {v: k for k, v in enumerate(universe_vectors(event_universe(n)))}
    return {order: tuple(uindex[g] for g in chain_cone(order).generators)
            for order in itertools.permutations(range(n))}


def reference_chain_graph(lowprob):
    """The chain fan from its definition: one node per order, keyed by
    chain_keys, with reference_chain_vertex's point, and one edge per
    adjacent swap."""
    keys = chain_keys(lowprob.space.n)
    nodes = sorted((MescNode(k, reference_chain_vertex(lowprob, order)) for order, k in keys.items()),
                   key=lambda node: node.gens)
    edges = frozenset(frozenset({k, keys[nb]}) for order, k in keys.items() for nb in adjacent_swaps(order))
    return MescGraph(tuple(nodes), edges)


def graph_neighbors(graph):
    """{node key: the set of keys it shares an edge with}."""
    neighbors = {node.gens: set() for node in graph.nodes}
    for a, b in map(tuple, graph.edges):
        neighbors[a].add(b)
        neighbors[b].add(a)
    return neighbors


def lp4():
    """A 2-monotone lower probability on four outcomes."""
    sp = OutcomeSpace(tuple(f"x{i}" for i in range(4)))
    return LowerProbability(sp, tuple(quadratic_lowprob(random.Random(4), 4).items()))


def chain_vertices(lowprob):
    """{order: its vertex in chain_graph(lowprob)}."""
    vertex = {node.gens: node.vertex for node in chain_graph(lowprob).nodes}
    return {order: vertex[k] for order, k in chain_keys(lowprob.space.n).items()}


@st.composite
def monotone_capacities(draw, min_n=2, max_n=5):
    """A monotone capacity on n = min_n..max_n outcomes (2..5 unless
    asked), values on a grid of 1/k for small k so that ties are common:
    either the monotone closure of raw grid values (mostly not 2-monotone)
    or a belief function of grid masses, zero masses included (always
    2-monotone)."""
    n = draw(st.integers(min_n, max_n))
    events = [frozenset(s) for r in range(1, n) for s in itertools.combinations(range(n), r)]
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        raw = dict(zip(events, draw(st.lists(st.integers(0, k), min_size=len(events),
                                              max_size=len(events)))))
        values = {e: Fraction(max(raw[b] for b in events if b <= e), k) for e in events}
    else:
        masses = dict(zip(events, draw(st.lists(st.integers(0, k), min_size=len(events),
                                                 max_size=len(events)))))
        total = sum(masses.values()) + draw(st.integers(1, k))  # the rest on the sure event
        values = {e: Fraction(sum(m for f, m in masses.items() if f <= e), total) for e in events}
    sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
    return LowerProbability(sp, tuple(values.items()))


class TestLowerProbability:
    def test_requires_all_proper_events(self):
        values = dict(SUPERMOD3)
        del values[frozenset({0, 1})]
        with pytest.raises(ValueError, match="missing"):
            lp3(values)

    def test_pins_empty_and_sure_event(self):
        values = dict(SUPERMOD3)
        values[frozenset()] = Q(0)
        values[frozenset({0, 1, 2})] = Q(1)
        assert lp3(values).value(()) == 0
        bad = dict(SUPERMOD3)
        bad[frozenset({0, 1, 2})] = Q("9/10")
        with pytest.raises(ValueError, match="sure event"):
            lp3(bad)

    def test_rejects_nonmonotone(self):
        values = dict(SUPERMOD3)
        values[frozenset({0, 1})] = Q("1/20")  # below L({x1}) = 1/10
        with pytest.raises(ValueError, match="monotone"):
            lp3(values)

    def test_value_accepts_labels_and_indices(self):
        lp = lp3(SUPERMOD3)
        assert lp.value(("x1", "x3")) == Q(1) / 2
        assert lp.value((0, 2)) == Q(1) / 2
        assert lp.value(range(3)) == 1

    def test_value_of_an_outside_outcome_raises_key_error(self):
        lp = lp3(SUPERMOD3)
        for event in ((3,), (0, 3), (-1,)):
            with pytest.raises(KeyError):
                lp.value(event)

    @settings(max_examples=150, deadline=None)
    @given(monotone_capacities(1, 6))
    def test_the_constructor_builds_the_int_table(self, lp):
        # V[mask] = d L(event) for every event, empty and sure included,
        # over the values' least common denominator, with no step masses;
        # value reads it back by index and by name
        n, names = lp.space.n, lp.space.names
        values = {**dict(lp.table), frozenset(): Q(0), frozenset(range(n)): Q(1)}
        by_mask = [values[frozenset(x for x in range(n) if a >> x & 1)] for a in range(2 ** n)]
        d, table = _scaled(by_mask)
        assert lp._ints == (table, d, None)
        for e, v in lp.table:
            assert lp.value(e) == v and lp.value([names[x] for x in e]) == v

    @settings(max_examples=300, deadline=None)
    @given(raw_tables())
    def test_refusals_match_the_frozenset_scan(self, drawn):
        n, table = drawn
        sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
        assert refusal(sp, table) == frozenset_scan(n, table)

    @pytest.mark.parametrize("event", [(0, 8), (8, 0)])
    def test_refusal_drops_outcomes_in_the_events_own_order(self, event):
        # at n = 9, 0 and 8 share a hash slot in a small frozenset, so the
        # order they are listed in is the order the scan drops them in:
        # both drops break monotonicity, and the first one is named
        n = 9
        events = [s for r in range(1, n) for s in itertools.combinations(range(n), r)]
        table = [(event if s == (0, 8) else s, Fraction(len(s) * (s != (0, 8)), n)) for s in events]
        sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
        message = refusal(sp, table)
        assert message == frozenset_scan(n, table)
        assert message == f"not monotone: dropping outcome {event[0]} from [0, 8] raises the value"

    def test_canonical_table(self):
        lp = lp3(dict(reversed(SUPERMOD3.items())))
        assert lp == lp3(SUPERMOD3)
        assert [sorted(e) for e in lp.events()] == [[0], [1], [2], [0, 1], [0, 2], [1, 2]]


class TestTwoMonotonicity:
    def test_supermodular_passes(self):
        assert is_two_monotone(lp3(SUPERMOD3)).ok

    def test_first_violator_frozen(self):
        rep = is_two_monotone(lp3(NONSUPER3))
        assert not rep.ok
        assert rep.violator == (frozenset({0, 1}), frozenset({1, 2}))
        assert rep.lhs == 1 and rep.rhs == Q(3) / 2

    @settings(max_examples=150, deadline=None)
    @given(monotone_capacities())
    def test_local_test_matches_the_pair_scan(self, lp):
        assert is_two_monotone(lp) == reference_is_two_monotone(lp)

    def test_belief_functions_always_pass(self):
        rng = random.Random(7)
        for _ in range(10):
            for n in (3, 4):
                sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
                lp = LowerProbability(sp, tuple(belief_masses(rng, n).items()))
                assert is_two_monotone(lp).ok


class TestChains:
    def test_vertex_telescopes(self):
        lp = lp3(SUPERMOD3)
        vertices = chain_vertices(lp)
        assert vertices[(0, 1, 2)] == (Q(1) / 10, Q(2) / 5, Q(1) / 2)
        # under 2-monotonicity every chain point dominates L on every event
        for p in vertices.values():
            assert all(sum(p[x] for x in e) >= v for e, v in lp.table)

    def test_vertex_check_catches_violation(self):
        # without 2-monotonicity some chain point leaves the credal set
        lp = lp3(NONSUPER3)
        vertices = chain_vertices(lp)
        p = vertices[(1, 2, 0)]
        assert p == (Q(1) / 4, Q(0), Q(3) / 4)
        assert sum(p[x] for x in (0, 1)) < lp.value((0, 1))
        assert any(sum(p[x] for x in e) < v for p in vertices.values() for e, v in lp.table)

    @settings(max_examples=60, deadline=None)
    @given(monotone_capacities())
    def test_graph_matches_reference_fan(self, lp):
        assert chain_graph(lp) == reference_chain_graph(lp)  # node order included

    def test_step_table_is_built_by_chain_graph_and_enumeration_only(self):
        # value, choquet and the 2-monotone test leave the step masses
        # unbuilt: models queried once through choquet never pay for them;
        # every kernel reads the int table the constructor built
        lp = lp3(SUPERMOD3)
        table, d, steps = lp._ints
        assert steps is None
        lp.value((0, 1))
        choquet(lp, (2, 1, 0))
        is_two_monotone(lp)
        assert lp._ints == (table, d, None) and lp._ints[0] is table
        vertices = chain_vertices(lp)
        steps = lp._ints[2]
        assert steps is not None and lp._ints[0] is table
        # built once and shared: equal steps are the same objects
        first, second = vertices[(0, 1, 2)], vertices[(0, 2, 1)]
        assert second[0] is first[0]
        chain_graph(lp)
        assert lp._ints[2] is steps
        masses = [v for row in steps for v in row if v is not None]
        assert len({id(v) for v in masses}) == len(set(masses))
        assert enumerate_extreme_2mono(lp)[0][0] is first[0]
        assert lp == lp3(SUPERMOD3) and hash(lp) == hash(lp3(SUPERMOD3))
        # the enumeration builds the same table on a fresh model
        fresh = lp3(SUPERMOD3)
        point = enumerate_extreme_2mono(fresh)[0]
        assert fresh._ints[2] is not None and point[0] is fresh._ints[2][0][0]

    def test_cone_generators_are_initial_segments(self):
        cone = chain_cone((2, 0, 1))
        assert set(cone.generators) == {unit(3, 2), (Q(1), Q(0), Q(1))}

    def test_fan_size(self):
        # n! chains, each adjacent to n - 1 others
        for n in (3, 4):
            sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
            lp = LowerProbability(sp, tuple(quadratic_lowprob(random.Random(n), n).items()))
            graph = chain_graph(lp)
            assert len(graph.nodes) == math.factorial(n)
            assert len(graph.edges) == math.factorial(n) * (n - 1) // 2

    def test_neighbors_swap_adjacent_outcomes(self):
        keys, neighbors = chain_keys(4), graph_neighbors(chain_graph(lp4()))
        swaps = {(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)}
        assert neighbors[keys[(0, 1, 2, 3)]] == {keys[nb] for nb in swaps}

    def test_neighbor_relation_is_symmetric(self):
        # every order's graph neighbours are its adjacent swaps, and each
        # swap lists the order back among its own swaps
        keys, neighbors = chain_keys(4), graph_neighbors(chain_graph(lp4()))
        for order, k in keys.items():
            assert neighbors[k] == {keys[nb] for nb in adjacent_swaps(order)}
            for nb in adjacent_swaps(order):
                assert order in adjacent_swaps(nb) and k in neighbors[keys[nb]]

    def test_neighbor_cones_share_a_wall(self):
        # each edge joins two cones that differ in one generator and lie on
        # opposite sides of their common wall; each wall bounds two cones
        graph = chain_graph(lp4())
        vectors = universe_vectors(event_universe(4))
        for a, b in map(tuple, graph.edges):
            assert len(set(a) ^ set(b)) == 2
            assert are_adjacent(Cone(tuple(vectors[i] for i in a)), Cone(tuple(vectors[i] for i in b)))
        walls = {}
        for node in graph.nodes:
            for i in range(len(node.gens)):
                walls.setdefault(node.gens[:i] + node.gens[i + 1:], []).append(node.gens)
        assert all(len(cones) == 2 for cones in walls.values())
        assert {frozenset(cones) for cones in walls.values()} == graph.edges


class TestEnumeration:
    def test_supermodular_hexagon(self):
        pts = enumerate_extreme_2mono(lp3(SUPERMOD3))
        assert len(pts) == len(frozenset(pts))
        assert frozenset(pts) == {tuple(p) for p in itertools.permutations((Q(1) / 10, Q(2) / 5, Q(1) / 2))}

    def test_matches_vertex_oracle(self):
        rng = random.Random(11)
        for n in (3, 4):
            sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
            for make in (belief_masses, quadratic_lowprob):
                lp = LowerProbability(sp, tuple(make(rng, n).items()))
                h, _ = build_credal_hrep(as_lower_prevision(lp))
                oracle = {v.point for v in vertices_bruteforce(h)}
                points = enumerate_extreme_2mono(lp)
                assert len(points) == len(frozenset(points))
                assert frozenset(points) == oracle

    @staticmethod
    def belief(n, masses):
        """The belief function of a Moebius assignment {focal set: mass},
        the rest of the unit mass on the sure event."""
        sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
        events = [frozenset(s) for r in range(1, n) for s in itertools.combinations(range(n), r)]
        return LowerProbability(sp, tuple(
            (e, sum((m for f, m in masses.items() if f <= e), Q(0))) for e in events))

    def test_tied_models_give_each_chain_vertex_once_in_first_chain_order(self):
        f = frozenset
        models = [
            self.belief(1, {}),  # n = 1: the one point (1,)
            self.belief(2, {}),  # vacuous
            self.belief(2, {f({0}): Fraction(1, 3)}),
            self.belief(2, {f({0}): Fraction(1, 2), f({1}): Fraction(1, 2)}),  # additive
            self.belief(3, {}),
            self.belief(4, {}),
            self.belief(4, {f({0, 1}): Q(1)}),  # one focal set
            self.belief(4, {f({1}): Fraction(1, 3), f({0, 2, 3}): Fraction(2, 3)}),  # two
            self.belief(4, {f({0, 3}): Fraction(1, 4), f({1, 2}): Fraction(1, 4)}),  # two, and the sure event
            self.belief(4, {f({i}): Fraction(w, 10) for i, w in enumerate((4, 3, 2, 1))}),  # additive
            self.belief(5, {f({2}): Fraction(1, 5), f({0, 4}): Fraction(1, 5)}),
        ]
        for lp in models:
            n = lp.space.n
            chains = [reference_chain_vertex(lp, order) for order in itertools.permutations(range(n))]
            points = enumerate_extreme_2mono(lp)
            assert len(points) == len(set(points))
            assert set(points) == set(chains)
            assert points == tuple(dict.fromkeys(chains))  # first-chain order
        assert enumerate_extreme_2mono(models[0]) == ((Q(1),),)
        assert len(enumerate_extreme_2mono(models[1])) == 2
        assert len(enumerate_extreme_2mono(models[3])) == 1
        assert len(enumerate_extreme_2mono(models[9])) == 1

    def test_packed_keys_keep_apart_on_a_large_denominator(self):
        # d is a product of two large primes, so packed fields are w = 92
        # bits wide. With h = 2^(w-1), the top bit of a field, the focal
        # sets {0, 1} (mass h/d) and {1, 2} (mass 1/d) give, among others,
        # the vertices d p = (h, 0, 1, r) and (0, h + 1, 0, r): fields 0
        # and 1 reach their top bit, and on fields one bit narrower the
        # two keys would coincide (h - (h + 1) h + h^2 = 0)
        d = (2 ** 61 - 1) * (2 ** 31 - 1)
        w = d.bit_length()
        h = 1 << w - 1
        lp = self.belief(4, {frozenset({0, 1}): Fraction(h, d), frozenset({1, 2}): Fraction(1, d),
                             frozenset({3}): Fraction(d - h - 1, d)})
        chains = [reference_chain_vertex(lp, order) for order in itertools.permutations(range(4))]
        points = enumerate_extreme_2mono(lp)
        assert points == tuple(dict.fromkeys(chains))
        assert (Fraction(h, d), Q(0), Fraction(1, d), Fraction(d - h - 1, d)) in points
        assert (Q(0), Fraction(h + 1, d), Q(0), Fraction(d - h - 1, d)) in points
        assert len(points) == 4

    def test_rejects_nonsupermodular_with_violator(self):
        with pytest.raises(ValueError, match=r"not 2-monotone"):
            enumerate_extreme_2mono(lp3(NONSUPER3))

    def test_probability_collapses_to_point(self):
        # additive L: every chain telescopes to the same distribution
        values = {}
        dist = (Q(1) / 2, Q(1) / 3, Q(1) / 6)
        for r in (1, 2):
            for s in itertools.combinations(range(3), r):
                values[frozenset(s)] = sum(dist[i] for i in s)
        points = enumerate_extreme_2mono(lp3(values))
        assert len(points) == len(frozenset(points))
        assert frozenset(points) == {dist}


@st.composite
def two_monotone_lowprobs(draw):
    """A 2-monotone lower probability on n = 1..6 outcomes: a belief function
    of small integer masses, zero masses included, mixed with weight alpha
    into Q(A)^2 for a random pmf Q. Both parts are 2-monotone, and so is
    the mixture. alpha = 0 keeps the belief function's tied chain vertices;
    alpha > 0 mostly gives n! distinct ones."""
    n = draw(st.integers(1, 6))
    events = [frozenset(s) for r in range(1, n) for s in itertools.combinations(range(n), r)]
    masses = dict(zip(events, draw(st.lists(st.integers(0, 3), min_size=len(events),
                                             max_size=len(events)))))
    total = sum(masses.values()) + draw(st.integers(1, 3))  # the rest on the sure event
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    alpha = Fraction(draw(st.integers(0, 3)), 4)
    values = {e: (1 - alpha) * Fraction(sum(m for f, m in masses.items() if f <= e), total)
              + alpha * Fraction(sum(weights[i] for i in e), sum(weights)) ** 2 for e in events}
    sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
    return LowerProbability(sp, tuple(values.items()))


def first_chain_vertices(lp):
    """The distinct chain vertices by reference_chain_vertex, in first-chain order."""
    orders = itertools.permutations(range(lp.space.n))
    return tuple(dict.fromkeys(reference_chain_vertex(lp, order) for order in orders))


def assert_tail_enumeration(lp):
    """enumerate_extreme_2mono equals the reference in first-chain order, and
    each coordinate is the step table's own Fraction object."""
    points = enumerate_extreme_2mono(lp)
    assert points == first_chain_vertices(lp)
    masses = {id(v) for row in lp._ints[2] for v in row if v is not None}
    assert all(id(x) in masses for p in points for x in p)


class TestTailTables:
    @settings(max_examples=80, deadline=None)
    @given(two_monotone_lowprobs())
    def test_matches_the_chain_reference(self, lp):
        assert is_two_monotone(lp).ok
        assert_tail_enumeration(lp)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_spaces_are_one_tail_table(self, n):
        # with at most three outcomes the pass emits every order from T(empty set)
        rng = random.Random(n)
        sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
        models = [TestEnumeration.belief(n, {}),  # vacuous: the n unit masses
                  TestEnumeration.belief(n, {frozenset({0}): Fraction(1, 2)}),
                  LowerProbability(sp, tuple(quadratic_lowprob(rng, n).items())),
                  LowerProbability(sp, tuple(belief_masses(rng, n).items()))]
        for lp in models:
            assert_tail_enumeration(lp)
        assert len(enumerate_extreme_2mono(models[0])) == n

    def test_belief_functions_with_tied_masses(self):
        # equal focal masses on overlapping and disjoint sets: many orders
        # share a vertex, in and across tail tables
        f = frozenset
        for n, masses in [(4, {f({0, 1}): Fraction(1, 4), f({2, 3}): Fraction(1, 4)}),
                          (5, {f({0}): Fraction(1, 5), f({1}): Fraction(1, 5), f({2, 3, 4}): Fraction(1, 5)}),
                          (6, {f({0, 1, 2}): Fraction(1, 3), f({3, 4, 5}): Fraction(1, 3)}),
                          (6, {f({i, (i + 1) % 6}): Fraction(1, 6) for i in range(6)})]:
            lp = TestEnumeration.belief(n, masses)
            assert_tail_enumeration(lp)
            assert len(enumerate_extreme_2mono(lp)) < math.factorial(n)


class TestOneScanPerModel:
    @pytest.fixture
    def scans(self, monkeypatch):
        """The models the local-inequality scan ran on, one entry per run."""
        runs, scan = [], chains2mono._local_scan
        monkeypatch.setattr(chains2mono, "_local_scan", lambda lp: runs.append(lp) or scan(lp))
        return runs

    def test_library_and_cli_share_one_scan(self, scans, monkeypatch, capsys):
        path = MODELS / "lowprob_n3_supermodular.json"
        lp = lower_probability_from_json(json.loads(path.read_text()))
        assert is_two_monotone(lp).ok
        points = enumerate_extreme_2mono(lp)
        # the CLI loads the same model object, picks chains under auto,
        # gates on 2-monotonicity and enumerates
        monkeypatch.setattr(chains2mono, "lower_probability_from_json", lambda obj: lp)
        assert cli.main(["vertices", "--model", str(path)]) == 0
        assert "engine: chains" in capsys.readouterr().err
        assert scans == [lp]
        assert enumerate_extreme_2mono(lp) == points

    def test_cli_scans_a_loaded_model_once(self, scans, capsys):
        assert cli.main(["vertices", "--model", str(MODELS / "lowprob_n3_supermodular.json")]) == 0
        assert len(scans) == 1

    def test_not_two_monotone_raises_the_same_error_again(self, scans):
        lp = lp3(NONSUPER3)
        errors = []
        for _ in range(2):
            with pytest.raises(NotTwoMonotoneError) as info:
                enumerate_extreme_2mono(lp)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == reference_error(lp)
        assert is_two_monotone(lp) == reference_is_two_monotone(lp)
        assert scans == [lp]


def reference_error(lp):
    rep = reference_is_two_monotone(lp)
    a, b = rep.violator
    return f"not 2-monotone: events {sorted(a)} and {sorted(b)} give {rep.lhs} < {rep.rhs}"


class TestChoquet:
    def test_frozen_supermodular_values(self):
        lp = lp3(SUPERMOD3)
        assert choquet(lp, (2, 1, 0)) == Q(3) / 5
        assert choquet(lp, (0, 1, 2)) == Q(3) / 5
        assert choquet(lp, (5, 1, 1)) == Q(7) / 5
        assert choquet(lp, (7, 2, 1)) == 2

    def test_constant_gamble(self):
        assert choquet(lp3(SUPERMOD3), (Q(1) / 3,) * 3) == Q(1) / 3

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_fraction_reference(self, data):
        # any monotone capacity, 2-monotone or not, on one to six outcomes,
        # against gambles with ties, negative entries, mixed denominators
        # and constants: the integer sum is the Fraction one, as a Fraction
        lp = data.draw(monotone_capacities(1, 6))
        f = data.draw(tied_gambles(lp.space.n))
        value = choquet(lp, f)
        assert type(value) is Fraction and value == reference_choquet(lp, f)

    def test_choquet_equals_envelope_iff_2monotone(self):
        # the non-2-monotone model undershoots the exact envelope value;
        # its credal set is nonempty but the model itself is incoherent
        # (no point attains L({x2}) = 0), so the comparison goes through
        # the raw LP oracle
        lp = lp3(NONSUPER3)
        assert choquet(lp, (1, 2, 1)) == 1
        value, _ = lp_min(lowprob_hrep(3, NONSUPER3), (1, 2, 1))
        assert value == Q(3) / 2

    def test_matches_natural_extension_on_random_models(self):
        rng = random.Random(23)
        for _ in range(6):
            values = belief_masses(rng, 3)
            lp = lp3(values)
            prev = as_lower_prevision(lp)
            for _ in range(8):
                f = random_gamble(rng, 3)
                assert choquet(lp, f) == natural_extension(prev, f)

    def test_equals_min_over_chain_vertices(self):
        rng = random.Random(29)
        for n in (3, 4):
            sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
            lp = LowerProbability(sp, tuple(quadratic_lowprob(rng, n).items()))
            pts = enumerate_extreme_2mono(lp)
            for _ in range(10):
                f = random_gamble(rng, n)
                assert choquet(lp, f) == min(dot(f, p) for p in pts)


class TestComonotonicity:
    def test_is_comonotone(self):
        assert is_comonotone((2, 1, 0), (5, 1, 1))
        assert is_comonotone((2, 1, 0), (1, 1, 1))
        assert not is_comonotone((2, 1, 0), (0, 1, 2))

    def test_constants_comonotone_with_everything(self):
        assert is_comonotone((3, 3, 3), (0, 5, 1))

    def test_additivity_check(self):
        lp = lp3(SUPERMOD3)
        f, g = (Q(2), Q(1), Q(0)), (Q(5), Q(1), Q(1))
        assert choquet(lp, tuple(a + b for a, b in zip(f, g))) == choquet(lp, f) + choquet(lp, g)
        # off comonotone pairs only superadditivity holds, here strictly
        h = (Q(0), Q(1), Q(2))
        assert not is_comonotone(f, h)
        assert choquet(lp, tuple(a + b for a, b in zip(f, h))) > choquet(lp, f) + choquet(lp, h)

    def test_choquet_comonotone_additive_everywhere(self):
        rng = random.Random(31)
        lp = lp3(SUPERMOD3)
        for _ in range(20):
            order = list(range(3))
            rng.shuffle(order)
            f = [None] * 3
            g = [None] * 3
            fa, ga = Q(0), Q(0)
            for i in order:
                fa += Q(rng.randint(0, 12)) / 12
                ga += Q(rng.randint(0, 12)) / 12
                f[i], g[i] = fa, ga
            assert is_comonotone(f, g)
            assert choquet(lp, [a + b for a, b in zip(f, g)]) == choquet(lp, f) + choquet(lp, g)


class TestJson:
    DOC = {
        "type": "lower_probability",
        "outcomes": ["x1", "x2", "x3"],
        "values": {
            "x1": "1/10", "x2": "1/10", "x3": "1/10",
            "x1|x2": "1/2", "x1|x3": "1/2", "x2|x3": "1/2",
        },
    }

    def test_parse(self):
        lp = lower_probability_from_json(self.DOC)
        assert lp == lp3(SUPERMOD3)

    def test_key_order_irrelevant(self):
        doc = dict(self.DOC)
        doc["values"] = dict(self.DOC["values"], **{"x2|x1": "1/2"})
        del doc["values"]["x1|x2"]
        assert lower_probability_from_json(doc) == lp3(SUPERMOD3)

    def test_missing_event_rejected(self):
        doc = dict(self.DOC)
        doc["values"] = {k: v for k, v in self.DOC["values"].items() if k != "x2|x3"}
        with pytest.raises(SchemaError, match="missing"):
            lower_probability_from_json(doc)

    def test_unknown_label_rejected(self):
        doc = dict(self.DOC)
        doc["values"] = dict(self.DOC["values"], **{"x1|zz": "1/2"})
        with pytest.raises(SchemaError):
            lower_probability_from_json(doc)

    def test_wrong_type_tag(self):
        with pytest.raises(SchemaError):
            lower_probability_from_json(dict(self.DOC, type="pri"))
