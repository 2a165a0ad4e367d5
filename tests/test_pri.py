"""Probability-interval models: coherence and repair, the (x, A, B) cone
calculus, exchange-rule enumeration against the generic walk and the vertex
oracle, direct natural extension, and the induced lower probability."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalfans import pri
from credalfans.chains2mono import LowerProbability, choquet, is_two_monotone
from credalfans.credal import (
    Gamble,
    IncoherenceError,
    LowerPrevision,
    OutcomeSpace,
    SchemaError,
    build_credal_hrep,
    natural_extension,
)
from credalfans.exactla import _scaled, vec
from credalfans.fanwalk import MescNode, graph_to_json, verify_graph, walk
from credalfans.polytope import vertices_bruteforce
from credalfans.pri import (
    COUNT_BOUNDS_MAX_N,
    PRIModel,
    as_lower_prevision,
    count_bounds,
    enumerate_extreme_pri,
    induced_2mono,
    is_coherent_pri,
    natural_extension_pri,
    pri_from_json,
    pri_hrep,
    pri_neighbors,
)

from cone_calculus import (
    Cone,
    PriCone,
    absorbed,
    chain_cone,
    contains,
    dot,
    dual_basis,
    locate_cone,
    ones,
    reference_enumerate_extreme_pri,
    reference_is_coherent_pri,
    remainder,
    unit,
    universe_of,
    universe_vectors,
    vertex_for_cone,
    witness,
)
from conftest import Q, coherent_intervals, random_gamble, tied_gambles

SP3 = OutcomeSpace(("x1", "x2", "x3"))
MODELS = Path(__file__).resolve().parent.parent / "models"


def space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def pri3():
    return PRIModel(SP3, (Q(1) / 6,) * 3, (Q(1) / 2,) * 3)


def pri_uniform(n, low, up):
    return PRIModel(space(n), (Q(low),) * n, (Q(up),) * n)


@st.composite
def coherent_interval_models(draw):
    """A coherent interval model on one to six outcomes: bounds around a
    pmf of small integer weights, each off by a step of denominator up to
    12 (a zero step pins a bound to the pmf, and steps often tie), then
    tightened to their reachable form by the Fraction reference."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    step = st.fractions(0, Fraction(1, 4), max_denominator=12)
    centre = [Fraction(w, sum(weights)) for w in weights]
    lows = tuple(max(Fraction(0), c - draw(step)) for c in centre)
    ups = tuple(min(Fraction(1), c + draw(step)) for c in centre)
    return reference_is_coherent_pri(PRIModel(space(n), lows, ups)).repaired


def split_vertices(m):
    """The extreme points of an interval model by their definition: every
    split of every outcome order whose remainder fits, in Fractions."""
    return {p for order in itertools.permutations(range(m.n)) for i, x in enumerate(order)
            if (p := vertex_for_cone(m, PriCone(x, order[i + 1:], order[:i]))) is not None}


def _grid_intervals(rng, n, den):
    """Bounds on the 1/den grid, proper or not; two draws in three put
    sum l = 1 or sum u = 1 exactly, the others draw each l(x) up to about 1/n."""
    kind = rng.randrange(3)
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    edge = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    if kind == 0:
        lo = [rng.randint(0, -(-den // n)) for _ in range(n)]
        up = [rng.randint(a, den) for a in lo]
    elif kind == 1:
        lo, up = edge, [rng.randint(a, den) for a in edge]
    else:
        lo, up = [rng.randint(0, a) for a in edge], edge
    return PRIModel(space(n), tuple(Q(a) / den for a in lo), tuple(Q(a) / den for a in up))


def reference_induced_table(m):
    """The induced lower probability's table in Fractions, event by event:
    max(sum of l over A, 1 - sum of u off A)."""
    n = m.n
    return tuple((frozenset(s), max(sum(m.lower[y] for y in s),
                                    1 - sum(m.upper[z] for z in range(n) if z not in s)))
                 for size in range(1, n) for s in itertools.combinations(range(n), size))


def outcome(build, *args):
    """build(*args), or the ValueError message it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


class TestModelAndCoherence:
    def test_elementwise_validation(self):
        with pytest.raises(ValueError):
            PRIModel(SP3, (Q(1) / 2, 0, 0), (Q(1) / 4, 1, 1))  # l > u
        with pytest.raises(ValueError):
            PRIModel(SP3, (0, 0, 0), (2, 1, 1))  # u > 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 15), st.integers(-3, 15)), min_size=1, max_size=6),
           st.integers(1, 12))
    def test_refuses_the_first_outcome_out_of_order(self, pairs, den):
        # bounds below 0, above 1 and crossed, often at several outcomes:
        # the message names the first x without 0 <= l(x) <= u(x) <= 1
        lows, ups = ([Fraction(p[i], den) for p in pairs] for i in (0, 1))
        bad = [x for x in range(len(pairs)) if not 0 <= lows[x] <= ups[x] <= 1]
        got = outcome(PRIModel, space(len(pairs)), lows, ups)
        if bad:
            assert got == f"need 0 <= l <= u <= 1 at outcome x{bad[0]}"
        else:
            assert (got.lower, got.upper) == (tuple(lows), tuple(ups))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda den: st.tuples(st.just(den), st.lists(
        st.lists(st.integers(0, den), min_size=2, max_size=2).map(sorted), min_size=1, max_size=6))))
    def test_the_constructor_scales_the_bounds(self, drawn):
        # proper, improper and unreachable models alike: _ints is the bounds
        # over their least common denominator, and induced_2mono equals the
        # Fraction reference, or refuses it with the same message
        den, bounds = drawn
        m = PRIModel(space(len(bounds)), *[[Fraction(b[i], den) for b in bounds] for i in (0, 1)])
        d, ints = _scaled(m.lower + m.upper)
        assert m._ints == (ints[:m.n], ints[m.n:], d)
        assert outcome(induced_2mono, m) == outcome(LowerProbability, m.space, reference_induced_table(m))

    def test_improper_model_constructible_but_diagnosed(self):
        m = PRIModel(SP3, (Q(2) / 3, Q(2) / 3, 0), (1, 1, 1))
        rep = is_coherent_pri(m)
        assert not rep.proper and not rep.coherent and rep.repaired is None

    def test_reachability_repair(self):
        m = PRIModel(SP3, (Q(1) / 2, 0, 0), (Q(1) / 2, Q(1) / 2, 1))
        rep = is_coherent_pri(m)
        assert rep.proper and not rep.coherent
        assert rep.repaired.upper == (Q(1) / 2, Q(1) / 2, Q(1) / 2)
        assert is_coherent_pri(rep.repaired).coherent

    def test_repair_preserves_credal_set(self):
        m = PRIModel(SP3, (Q(1) / 2, 0, 0), (Q(1) / 2, Q(1) / 2, 1))
        fixed = is_coherent_pri(m).repaired
        assert {v.point for v in vertices_bruteforce(pri_hrep(m)[0])} == {
            v.point for v in vertices_bruteforce(pri_hrep(fixed)[0])}

    def test_coherent_model_passes(self):
        assert is_coherent_pri(pri3()).coherent

    def test_generic_builder_writes_pri_hrep(self):
        # one row per half-space: the upper bound's row -1_x >= -u(x) is the
        # complement row 1 - 1_x >= 1 - u(x), and from three outcomes on no
        # two bounds share a half-space, so both builders give one polytope
        rng = random.Random(1812)
        verdicts = set()
        for n in range(3, 11):
            for i in range(40):
                if i % 3 == 0:
                    m = PRIModel(space(n), *map(tuple, coherent_intervals(rng, n)))
                elif i % 3 == 1:
                    m = _grid_intervals(rng, n, rng.randint(1, 12))
                else:
                    m = grid_intervals(rng, n, 1 + i % 4)
                assert build_credal_hrep(as_lower_prevision(m)) == pri_hrep(m)
                rep = is_coherent_pri(m)
                verdicts.add((rep.proper, rep.coherent))
        assert verdicts == {(False, False), (True, False), (True, True)}

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 12), min_size=2, max_size=2).map(sorted),
                    min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=7)))
    def test_as_lower_prevision_writes_the_bounds_down(self, bounds):
        # tied and pinned twelfths on n = 1..7 outcomes: the 2n assessments,
        # written down, are the lower and upper bounds on singleton
        # indicators through from_bounds, equal and hashing alike; one
        # outcome assesses nothing, and only l = u = 1 is coherent there
        m = PRIModel(space(len(bounds)), *[[Fraction(b[i], 12) for b in bounds] for i in (0, 1)])
        if m.n == 1:
            if bounds == [[12, 12]]:
                assert as_lower_prevision(m) == LowerPrevision(m.space, ())
            else:
                with pytest.raises(IncoherenceError):
                    as_lower_prevision(m)
            return
        singletons = [Gamble.indicator(m.space, (x,)) for x in range(m.n)]
        expected = LowerPrevision.from_bounds(m.space, lower=zip(singletons, m.lower),
                                              upper=zip(singletons, m.upper))
        lp = as_lower_prevision(m)
        assert lp == expected and hash(lp) == hash(expected) and lp._ints == expected._ints

    def test_pri_hrep_shares_one_universe_per_n(self):
        # the universe depends on n alone: every model on n outcomes gets the
        # same object, equal to the singletons, complements and constant
        # built from scratch; another n gets another universe
        seen = set()
        for n in (2, 3, 4, 10):
            m1 = pri_uniform(n, 0, 1)
            m2 = pri_uniform(n, Q(1) / (2 * n), Q(3) / (2 * n))
            universe = pri_hrep(m1)[1]
            assert pri_hrep(m2)[1] is universe
            fresh = universe_of([unit(n, x) for x in range(n)]
                                + [vec([int(y != x) for y in range(n)]) for x in range(n)]
                                + [ones(n)])
            assert universe == fresh
            seen.add(id(universe))
        assert len(seen) == 4

    def test_integer_coherence_matches_fraction_reference(self):
        rng = random.Random(1711)
        verdicts, edges = set(), 0
        for _ in range(300):
            m = _grid_intervals(rng, rng.randint(1, 5), rng.randint(1, 12))
            rep = is_coherent_pri(m)
            assert rep == reference_is_coherent_pri(m)
            assert not rep.coherent or rep.repaired is m
            if rep.proper:
                assert is_coherent_pri(rep.repaired) == reference_is_coherent_pri(rep.repaired)
            verdicts.add((rep.proper, rep.coherent))
            edges += sum(m.lower) == 1 or sum(m.upper) == 1
        assert verdicts == {(False, False), (True, False), (True, True)}
        assert edges >= 100


class TestConeCalculus:
    def test_pricone_validation(self):
        with pytest.raises(ValueError):
            PriCone(0, frozenset({0}), frozenset({1}))
        with pytest.raises(ValueError):
            PriCone(0, frozenset({1}), frozenset({1}))

    def test_gens_are_row_normals(self):
        c = PriCone(0, frozenset({1}), frozenset({2}))
        gens = _cone_of(c, pri3()).generators
        assert set(gens) == {unit(3, 1), (Q(1), Q(1), Q(0))}
        _, uni = pri_hrep(pri3())
        assert set(gens) <= set(universe_vectors(uni))

    def test_cone_is_mesc_over_interval_universe(self):
        points, graph = enumerate_extreme_pri(pri3())
        vectors = universe_vectors(pri_hrep(pri3())[1])
        assert len(graph.nodes) == 6
        for node in graph.nodes:
            gens = [vectors[i] for i in node.gens]
            dual = dual_basis(gens, 3)
            assert dual is not None
            assert absorbed(dual, (u for u in vectors if u not in gens and u != ones(3))) is None

    def test_locate_generic(self):
        (c,) = locate_cone((3, 1, 2))
        assert (c.x, c.a, c.b) == (2, frozenset({0}), frozenset({1}))
        f = vec((5, 1, 3, 2))
        cones = locate_cone(f)
        assert len(cones) == 2
        for c in cones:
            # the cones are simplicial, so the conic witness is unique and
            # the relative interior is where it is strictly positive
            cone = _cone_of(c, pri_uniform(4, 0, 1))
            dual = dual_basis(cone.generators, 4)
            assert absorbed(dual, [f]) is not None
            assert all(a > 0 for a in witness(dual, f).coeffs)

    def test_locate_on_wall_or_constant(self):
        assert locate_cone((1, 1, 0)) == ()
        assert locate_cone((2, 2, 2)) == ()

    def test_vertex_for_cone(self):
        m = pri3()
        c = PriCone(0, frozenset({1}), frozenset({2}))
        assert vertex_for_cone(m, c) == (Q(1) / 3, Q(1) / 6, Q(1) / 2)
        with pytest.raises(ValueError):
            vertex_for_cone(m, PriCone(0, frozenset({1}), frozenset()))

    def test_vertex_rejected_outside_interval(self):
        # uniform tight model: only the (1, 8) split leaves a feasible rest
        m = pri_uniform(10, "1/20", "1/9")
        a15 = PriCone(0, frozenset(range(1, 6)), frozenset(range(6, 10)))
        assert vertex_for_cone(m, a15) is None
        a18 = PriCone(0, frozenset({1}), frozenset(range(2, 10)))
        assert vertex_for_cone(m, a18) == (
            Q(11) / 180, Q(1) / 20, *([Q(1) / 9] * 8))


class TestNeighbors:
    def test_hexagon_rules(self):
        m = pri3()
        c = PriCone(0, frozenset({1}), frozenset({2}))
        nbs = _neighbors(m, c)
        # outcome 1 leaves A and outcome 2 leaves B, each to become distinguished
        assert len(nbs) == 2
        assert set(nbs) == {PriCone(1, frozenset({0}), frozenset({2})),
                            PriCone(2, frozenset({1}), frozenset({0}))}

    def test_reverse_symmetry(self):
        rng = random.Random(5)
        for n in (3, 4, 5):
            lows, ups = coherent_intervals(rng, n)
            m = PRIModel(space(n), tuple(lows), tuple(ups))
            _, graph = enumerate_extreme_pri(m)
            checked = 0
            for node in graph.nodes[:6]:
                c = _cone_from_gens(node.gens, m)
                for nb in _neighbors(m, c):
                    assert c in _neighbors(m, nb)
                    checked += 1
            assert checked

    def test_every_wall_emits_for_coherent(self):
        rng = random.Random(9)
        for n in (3, 4):
            lows, ups = coherent_intervals(rng, n)
            m = PRIModel(space(n), tuple(lows), tuple(ups))
            _, graph = enumerate_extreme_pri(m)
            for node in graph.nodes:
                c = _cone_from_gens(node.gens, m)
                walls_covered = set()
                for nb in _neighbors(m, c):
                    moved = (c.a - nb.a) | (c.b - nb.b) | ({c.x} - ({nb.x} | nb.a | nb.b))
                    walls_covered |= moved
                assert walls_covered == c.a | c.b


def _mask(side):
    return sum(1 << y for y in side)


def _outcomes(mask):
    return frozenset(y for y in range(mask.bit_length()) if mask >> y & 1)


def _neighbors(m, c):
    """pri_neighbors of the cone c on m's integer table, as PriCones; each
    neighbour's carried r must be d times its remainder summed afresh."""
    t = m._ints
    d = t[2]
    out = []
    for x, a, b, r in pri_neighbors(t, (c.x, _mask(c.a), _mask(c.b), int(d * remainder(m, c)))):
        nb = PriCone(x, _outcomes(a), _outcomes(b))
        assert type(r) is int and r == d * remainder(m, nb)
        out.append(nb)
    return tuple(out)


def _cone_of(c, m):
    """The cone of (x, A, B) over pri_hrep(m)'s rows: the lower row of each
    y in A and the upper row of each z in B generate, the constants are
    lineality."""
    h, _ = pri_hrep(m)
    rows = [vec(f) for f in h.rows]
    return Cone(tuple([rows[y] for y in c.a] + [rows[m.n + z] for z in c.b]))


def _cone_from_gens(gens, m):
    """Invert _cone_of on graph keys: map the universe indices back through
    pri_hrep's universe, then singletons go to A, complements to B."""
    n = m.n
    vectors = universe_vectors(pri_hrep(m)[1])
    a, b = set(), set()
    for g in (vectors[i] for i in gens):
        supp = [i for i in range(n) if g[i] != 0]
        if len(supp) == 1:
            a.add(supp[0])
        else:
            (z,) = [i for i in range(n) if g[i] == 0]
            b.add(z)
    (x,) = set(range(n)) - a - b
    return PriCone(x, frozenset(a), frozenset(b))


def assert_walk_agrees(graph, walked):
    """The exchange walk's graph is the generic walk's, but on a degenerate
    model, where the walk drops implied rows and their cones: there it has
    fewer nodes and the same vertex set."""
    if len(walked.nodes) < len(graph.nodes):
        assert walked.vertices == graph.vertices
    else:
        assert (graph.nodes, graph.edges) == (walked.nodes, walked.edges)


class TestEnumeration:
    def test_hexagon(self):
        pts, graph = enumerate_extreme_pri(pri3())
        assert len(pts) == len(frozenset(pts))
        assert frozenset(pts) == {tuple(p) for p in itertools.permutations((Q(1) / 2, Q(1) / 3, Q(1) / 6))}
        rep = verify_graph(graph)
        assert rep.ok and rep.n_nodes == 6 and rep.n_edges == 6
        assert rep.degree_histogram == ((2, 6),)

    def test_incoherent_rejected(self):
        m = PRIModel(SP3, (Q(1) / 2, 0, 0), (Q(1) / 2, Q(1) / 2, 1))
        with pytest.raises(IncoherenceError):
            enumerate_extreme_pri(m)

    def test_n2_segment(self):
        m = PRIModel(OutcomeSpace(("a", "b")), (Q(1) / 4, Q(1) / 3), (Q(2) / 3, Q(3) / 4))
        pts, graph = enumerate_extreme_pri(m)
        assert len(pts) == len(frozenset(pts))
        assert frozenset(pts) == {(Q(1) / 4, Q(3) / 4), (Q(2) / 3, Q(1) / 3)}
        assert graph.nodes == (MescNode((0,), (Q(2) / 3, Q(1) / 3)),
                               MescNode((1,), (Q(1) / 4, Q(3) / 4)))
        assert graph.edges == {frozenset({(0,), (1,)})}

    @pytest.mark.parametrize("outcomes, low, up", [
        pytest.param(("a",), "1", "1", id="n1"),
        *(pytest.param(("a", "b"), low, up, id=f"{low}-{up}")
          for low, up in [("1/4", "3/4"), ("1/2", "1/2"), ("0", "1")]),
    ])
    def test_n2_graph_is_the_walks(self, outcomes, low, up):
        n = len(outcomes)
        m = PRIModel(OutcomeSpace(outcomes), (Q(low),) * n, (Q(up),) * n)
        pts, graph = enumerate_extreme_pri(m)
        h, universe = pri_hrep(m)
        doc = graph_to_json(graph, universe)
        assert doc == graph_to_json(walk(h, universe), universe)
        assert len(pts) == len(frozenset(pts))
        assert frozenset(pts) == {v.point for v in vertices_bruteforce(h)}
        if n == 1:  # one cone, with no generators, and no wall
            assert doc["nodes"] == [{"id": 0, "vertex": ["1"], "generators": []}]
            assert doc["edges"] == []
        if low == "1/4":
            assert doc["nodes"] == [
                {"id": 0, "vertex": ["3/4", "1/4"], "generators": [0]},
                {"id": 1, "vertex": ["1/4", "3/4"], "generators": [1]}]
            assert doc["edges"] == [[0, 1]]

    def test_matches_walk_and_oracle(self):
        rng = random.Random(17)
        models = []
        for n in (3, 4, 5):
            for _ in range(4):
                lows, ups = coherent_intervals(rng, n)
                models.append(PRIModel(space(n), tuple(lows), tuple(ups)))
        # degenerate reproducer: ties emit both sides of a wall
        models.append(pri_uniform(5, "1/6", "1/4"))
        for m in models:
            pts, graph = enumerate_extreme_pri(m)
            h, uni = pri_hrep(m)
            assert len(pts) == len(frozenset(pts))
            assert frozenset(pts) == {v.point for v in vertices_bruteforce(h)}
            assert_walk_agrees(graph, walk(h, uni))

    def test_degenerate_pinned_interval(self):
        # l(x1) == u(x1) collapses the polytope to a segment; cones from
        # different distinguished outcomes certify the same endpoint and
        # both engines must agree on that degenerate graph
        m = PRIModel(SP3, (Q(1) / 2, 0, 0), (Q(1) / 2, Q(1) / 2, Q(1) / 2))
        assert is_coherent_pri(m).coherent
        pts, graph = enumerate_extreme_pri(m)
        assert len(pts) == len(frozenset(pts))
        assert frozenset(pts) == {(Q(1) / 2, Q(0), Q(1) / 2), (Q(1) / 2, Q(1) / 2, Q(0))}
        h, uni = pri_hrep(m)
        walked = walk(h, uni)
        assert_walk_agrees(graph, walked)
        # the walk drops the rows of u(x2) and u(x3), implied by p(x1) = 1/2,
        # and keeps two cones at each end, one on each of x1's two rows
        assert len(walked.nodes) == 4

    def test_uniform_max_small(self):
        # symmetric model attaining the upper cone bound at n = 5: only the
        # central split (|A|, |B|) = (2, 2) keeps the remainder strictly
        # inside the interval
        m = pri_uniform(5, "1/6", "7/30")
        pts, graph = enumerate_extreme_pri(m)
        low, high = count_bounds(5)
        assert len(graph.nodes) == high == 30
        rep = verify_graph(graph)
        assert rep.ok and rep.degree_histogram == ((4, 30),)


def grid_intervals(rng, n, k):
    """Bounds on the 1/(k n) grid around the uniform distribution, repaired
    to reachable: with few grid values, bounds tie within an outcome and
    across outcomes."""
    lows = [Q(rng.randint(0, k)) / (k * n) for _ in range(n)]
    ups = [Q(rng.randint(k, 2 * k)) / (k * n) for _ in range(n)]
    return is_coherent_pri(PRIModel(space(n), lows, ups)).repaired


class TestIntegerWalk:
    """The integer walk against the Fraction reference walk of
    cone_calculus: the same points and the same graph, node for node."""

    def test_matches_fraction_reference_on_seeded_models(self):
        # the staircase split at position 0 (then n - 1) fits by a tie that
        # coherence forces there, and the seed must still be interior
        ends = [PRIModel(SP3, (0, Q(1) / 3, Q(1) / 3), (Q(1) / 3, Q(2) / 3, Q(2) / 3)),
                PRIModel(SP3, (0, 0, Q(1) / 3), (Q(1) / 3, Q(1) / 3, Q(2) / 3))]
        assert vertex_for_cone(ends[0], PriCone(0, frozenset({1, 2}), frozenset())) is not None
        assert vertex_for_cone(ends[1], PriCone(2, frozenset(), frozenset({0, 1}))) is not None
        for m in ends:
            assert is_coherent_pri(m).coherent
            assert enumerate_extreme_pri(m) == reference_enumerate_extreme_pri(m)
        rng = random.Random(43)
        degenerate = 0
        # 300 models, fewer at the larger sizes, where the reference is slow
        for n, count in {3: 55, 4: 55, 5: 55, 6: 55, 7: 40, 8: 25, 9: 15}.items():
            for i in range(count):
                if i % 3 == 2:
                    m = grid_intervals(rng, n, 1 + i % 4)
                else:
                    lows, ups = coherent_intervals(rng, n, den=(12, 3)[i % 3])
                    m = PRIModel(space(n), tuple(lows), tuple(ups))
                result = enumerate_extreme_pri(m)
                assert result == reference_enumerate_extreme_pri(m)
                # ties emit both sides of a wall, so two cones share a vertex
                degenerate += len(result[1].nodes) > len(result[0])
        assert degenerate >= 100

    def test_degenerate_reproducer(self):
        m = pri_uniform(5, "1/6", "1/4")
        points, graph = enumerate_extreme_pri(m)
        assert (points, graph) == reference_enumerate_extreme_pri(m)
        assert len(graph.nodes) == 50
        assert verify_graph(graph).degree_histogram == ((6, 30), (7, 20))

    @pytest.mark.parametrize("name", ["pri_n10_uniform_max", "pri_n10_uniform_min"])
    def test_model_files(self, name):
        m = pri_from_json(json.loads((MODELS / f"{name}.json").read_text()))
        assert enumerate_extreme_pri(m) == reference_enumerate_extreme_pri(m)


class TestVertexRows:
    """The walk keys each vertex by its integer row over d: the points are
    the distinct vertices in first-node order, each one Fraction tuple that
    every node certifying it shares, and no Fraction is hashed from the
    walk to the JSON export."""

    @pytest.mark.parametrize("m, nodes, points", [
        pytest.param(pri_uniform(5, "1/6", "1/4"), 50, 10, id="reproducer"),
        # l = u at one outcome: equal vertex values from distinct cones
        pytest.param(grid_intervals(random.Random(1), 5, 1), 44, 8, id="grid"),
        pytest.param(pri_uniform(1, "1", "1"), 1, 1, id="n1"),
        pytest.param(pri_uniform(2, "1/4", "3/4"), 2, 2, id="n2"),
        pytest.param(pri_uniform(2, "1/2", "1/2"), 2, 1, id="n2-point"),
    ])
    def test_points_are_the_distinct_vertices_in_node_order(self, m, nodes, points):
        pts, graph = enumerate_extreme_pri(m)
        assert type(pts) is tuple
        assert (len(graph.nodes), len(pts)) == (nodes, points)
        assert len(pts) == len(frozenset(pts))
        assert pts == tuple(dict.fromkeys(node.vertex for node in graph.nodes))
        assert frozenset(pts) == graph.vertices
        if len(graph.nodes[0].vertex) > 2:  # the interval walk shares each tuple
            first = {}
            assert all(first.setdefault(node.vertex, node.vertex) is node.vertex
                       for node in graph.nodes)
            assert all(first[p] is p for p in pts)

    def test_no_fraction_hashing_from_walk_to_export(self, monkeypatch):
        models = [pri_from_json(json.loads((MODELS / f"{name}.json").read_text()))
                  for name in ("pri_n10_uniform_max", "pri_n10_uniform_min")]
        models.append(pri_uniform(5, "1/6", "1/4"))
        for m in models:
            pri_hrep(m)  # fills the per-n fan cache, whose universe hashes its vectors
        calls = []
        real = Fraction.__hash__

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        for m in models:
            points, graph = enumerate_extreme_pri(m)
            verify_graph(graph)
            graph_to_json(graph, pri_hrep(m)[1])
        assert len(calls) == 0
        frozenset(points)  # the spy does see a hash
        assert calls


class TestNaturalExtension:
    def test_frozen_hexagon_value(self):
        assert natural_extension_pri(pri3(), (3, 2, 1)) == Q(5) / 3

    def test_matches_generic_envelope(self):
        rng = random.Random(19)
        for n in (3, 4):
            lows, ups = coherent_intervals(rng, n)
            m = PRIModel(space(n), tuple(lows), tuple(ups))
            prev = as_lower_prevision(m)
            for _ in range(10):
                f = random_gamble(rng, n)
                assert natural_extension_pri(m, f) == natural_extension(prev, f)

    def test_matches_vertex_minimum(self):
        rng = random.Random(21)
        m = pri_uniform(10, "1/11", "1/9")
        pts, _ = enumerate_extreme_pri(m)
        for _ in range(10):
            f = random_gamble(rng, 10)
            assert natural_extension_pri(m, f) == min(dot(f, p) for p in pts)
        # degenerate grid models, with payoffs in {-1, 0, 1} so that most
        # gambles tie across outcomes
        for n in (3, 4, 5, 6):
            for k in (1, 2, 3):
                m = grid_intervals(rng, n, k)
                pts, _ = enumerate_extreme_pri(m)
                for _ in range(10):
                    f = random_gamble(rng, n, den=1, lo=-1, hi=1)
                    assert natural_extension_pri(m, f) == min(dot(f, p) for p in pts)

    def test_incoherent_rejected(self):
        m = PRIModel(SP3, (Q(1) / 2, 0, 0), (Q(1) / 2, Q(1) / 2, 1))
        with pytest.raises(IncoherenceError):
            natural_extension_pri(m, (1, 2, 3))

    def test_ties_and_constants(self):
        m = pri3()
        assert natural_extension_pri(m, (1, 1, 1)) == 1
        # tied gamble: 2(p1 + p2) is smallest when p3 takes its upper bound
        assert natural_extension_pri(m, (2, 2, 0)) == 1

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_the_minimum_over_the_split_vertices(self, data):
        # coherent models on one to six outcomes, tied and pinned bounds
        # included, against gambles with ties, negative entries, mixed
        # denominators and constants
        m = data.draw(coherent_interval_models())
        f = data.draw(tied_gambles(m.n))
        value = natural_extension_pri(m, f)
        assert type(value) is Fraction and value == min(dot(f, p) for p in split_vertices(m))


class TestOneScalingPerModel:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_the_bounds_are_scaled_once_per_model_object(self, monkeypatch, n):
        # the coherence test, the closed form, the walk and the H-rep read
        # one integer table kept with the model, whichever of them runs
        # first; an equal model is another object and scales its own
        scaled = []

        def spy(v):
            scaled.append(tuple(v))
            return _scaled(v)

        monkeypatch.setattr(pri, "_scaled", spy)
        lows, ups = coherent_intervals(random.Random(n), n)
        calls = [is_coherent_pri, enumerate_extreme_pri, pri_hrep,
                 lambda m: natural_extension_pri(m, range(n))]
        for first in range(len(calls)):
            m = PRIModel(space(n), tuple(lows), tuple(ups))
            for call in calls[first:] + calls[:first]:
                call(m)
            natural_extension_pri(m, (Q(1) / 3,) * n)
            assert scaled.count(m.lower + m.upper) == first + 1


class TestInduced2Mono:
    def test_frozen_values(self):
        lp = induced_2mono(pri3())
        assert lp.value((0,)) == Q(1) / 6
        assert lp.value((0, 1)) == Q(1) / 2  # forced: 1 - u(x3)

    def test_envelope_bounds_on_singletons_and_complements(self):
        rng = random.Random(27)
        for n in (3, 4, 5):
            lows, ups = coherent_intervals(rng, n)
            m = PRIModel(space(n), tuple(lows), tuple(ups))
            lp = induced_2mono(m)
            for x in range(n):
                assert lp.value((x,)) == m.lower[x]
                assert lp.value(tuple(y for y in range(n) if y != x)) == 1 - m.upper[x]

    def test_induced_is_2monotone(self):
        rng = random.Random(33)
        for n in (3, 4, 5):
            lows, ups = coherent_intervals(rng, n)
            m = PRIModel(space(n), tuple(lows), tuple(ups))
            assert is_two_monotone(induced_2mono(m)).ok

    def test_choquet_of_induced_matches_direct_extension(self):
        rng = random.Random(37)
        for n in (3, 4):
            lows, ups = coherent_intervals(rng, n)
            m = PRIModel(space(n), tuple(lows), tuple(ups))
            lp = induced_2mono(m)
            for _ in range(10):
                f = random_gamble(rng, n)
                assert choquet(lp, f) == natural_extension_pri(m, f)


class TestCounts:
    def test_count_bounds_values(self):
        assert count_bounds(3) == (6, 6)
        assert count_bounds(4) == (12, 12)
        assert count_bounds(5) == (20, 30)
        assert count_bounds(10) == (90, 1260)
        with pytest.raises(ValueError):
            count_bounds(2)

    def test_count_bounds_assume_one_cone_per_vertex(self):
        # tied splits put several cones on one vertex: the cones pass the
        # upper bound and the vertices fall under the lower one
        low, high = count_bounds(5)
        tied = pri_uniform(5, "1/6", "1/4")
        assert is_coherent_pri(tied).coherent
        pts, graph = enumerate_extreme_pri(tied)
        assert (len(graph.nodes), len(pts)) == (50, 10)
        assert len(pts) < low < high < len(graph.nodes)
        # a tie-free model: one cone per vertex, strictly inside the bounds
        m = PRIModel(space(5), tuple(map(Q, ("1/30", "1/30", "2/15", "2/15", "1/30"))),
                     tuple(map(Q, ("17/60", "2/5", "13/60", "3/10", "7/30"))))
        assert is_coherent_pri(m).coherent
        pts, graph = enumerate_extreme_pri(m)
        assert len(graph.nodes) == len(pts) == 25
        assert low < len(pts) < high

    def test_count_bounds_refuses_sizes_it_cannot_answer(self):
        # the closed form at COUNT_BOUNDS_MAX_N, then a size whose factorial
        # would never finish
        n = COUNT_BOUNDS_MAX_N
        half = (n - 1) // 2
        assert count_bounds(n)[1] == math.factorial(n) // (
            math.factorial(half) * math.factorial(n - 1 - half))
        with pytest.raises(ValueError, match="n <= "):
            count_bounds(10**9)

    def test_refinement_counts_cover_chains(self):
        # a generic gamble lies in n - 2 interval cones, and the chain
        # cones refining the interval cone (x, A, B) order A and B freely
        # on their own sides, so every full cone with both sides nonempty
        # is hit by |A|! |B|! of the n! chains
        for n in (3, 4, 5):
            hits = {}
            for order in itertools.permutations(range(n)):
                cc = chain_cone(order)
                probe = vec([sum(g[i] for g in cc.generators) for i in range(n)])
                for pc in locate_cone(probe):
                    hits[pc] = hits.get(pc, 0) + 1
            assert len(hits) == n * (2 ** (n - 1) - 2)
            assert sum(hits.values()) == math.factorial(n) * (n - 2)
            for pc, count in hits.items():
                assert count == math.factorial(len(pc.a)) * math.factorial(len(pc.b))

    def test_chain_cones_refine_interval_cones(self):
        m = pri_uniform(4, 0, 1)
        for order in itertools.permutations(range(4)):
            cc = chain_cone(order)
            probe = vec([sum(g[i] for g in cc.generators) for i in range(4)])
            for pc in locate_cone(probe):
                target = _cone_of(pc, m)
                for g in cc.generators:
                    assert contains(target, g)


class TestJson:
    DOC = {
        "type": "pri",
        "outcomes": ["x1", "x2", "x3"],
        "lower": {"x1": "1/6", "x2": "1/6", "x3": "1/6"},
        "upper": {"x1": "1/2", "x2": "1/2", "x3": "1/2"},
    }

    def test_parse(self):
        m = pri_from_json(self.DOC)
        assert m == pri3()

    def test_missing_upper(self):
        with pytest.raises(SchemaError):
            pri_from_json({k: v for k, v in self.DOC.items() if k != "upper"})

    def test_crossed_bounds_rejected(self):
        doc = dict(self.DOC, lower=dict(self.DOC["lower"], x1="2/3"))
        with pytest.raises(SchemaError):
            pri_from_json(doc)

    def test_wrong_type_tag(self):
        with pytest.raises(SchemaError):
            pri_from_json(dict(self.DOC, type="lower_probability"))
