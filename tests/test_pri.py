"""Probability-interval models: coherence and repair, the (x, A, B) cone
calculus, exchange-rule enumeration against the generic walk and the vertex
oracle, direct natural extension, and the induced lower probability."""

import itertools
import math
import random

import pytest

from credalfans.chains2mono import chain_fan, choquet, is_two_monotone
from credalfans.cones import absorbed, dual_basis
from credalfans.credal import IncoherenceError, OutcomeSpace, SchemaError, natural_extension
from credalfans.exactla import dot, ones, unit, vec
from credalfans.fanwalk import MescNode, graph_to_json, verify_graph, walk
from credalfans.polytope import vertices_bruteforce
from credalfans.pri import (
    COUNT_BOUNDS_MAX_N,
    PRIModel,
    PriCone,
    as_lower_prevision,
    count_bounds,
    enumerate_extreme_pri,
    induced_2mono,
    is_coherent_pri,
    natural_extension_pri,
    pri_from_json,
    pri_hrep,
    pri_neighbors,
    vertex_for_cone,
)

from cone_calculus import Cone, chain_cone, contains, locate_cone, witness
from conftest import Q, coherent_intervals, random_gamble

SP3 = OutcomeSpace(("x1", "x2", "x3"))


def space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def pri3():
    return PRIModel(SP3, (Q(1) / 6,) * 3, (Q(1) / 2,) * 3)


def pri_uniform(n, low, up):
    return PRIModel(space(n), (Q(low),) * n, (Q(up),) * n)


class TestModelAndCoherence:
    def test_elementwise_validation(self):
        with pytest.raises(ValueError):
            PRIModel(SP3, (Q(1) / 2, 0, 0), (Q(1) / 4, 1, 1))  # l > u
        with pytest.raises(ValueError):
            PRIModel(SP3, (0, 0, 0), (2, 1, 1))  # u > 1

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
        assert set(gens) <= set(uni.vectors)

    def test_cone_is_mesc_over_interval_universe(self):
        points, graph = enumerate_extreme_pri(pri3())
        _, uni = pri_hrep(pri3())
        assert len(graph.nodes) == 6
        for node in graph.nodes:
            gens = [uni.vectors[i] for i in node.gens]
            dual = dual_basis(gens, 3)
            assert dual is not None
            assert absorbed(dual, (u for u in uni.vectors if u not in gens and u != ones(3))) is None

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
        nbs = pri_neighbors(m, c)
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
                for nb in pri_neighbors(m, c):
                    assert c in pri_neighbors(m, nb)
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
                for nb in pri_neighbors(m, c):
                    moved = (c.a - nb.a) | (c.b - nb.b) | ({c.x} - ({nb.x} | nb.a | nb.b))
                    walls_covered |= moved
                assert walls_covered == c.a | c.b


def _cone_of(c, m):
    """The cone of (x, A, B) over pri_hrep(m)'s rows: the lower row of each
    y in A and the upper row of each z in B generate, the constants are
    lineality."""
    h, _ = pri_hrep(m)
    rows = [f for f, _ in h.inequalities]
    return Cone(tuple([rows[y] for y in c.a] + [rows[m.n + z] for z in c.b]))


def _cone_from_gens(gens, m):
    """Invert _cone_of on graph keys: map the universe indices back through
    pri_hrep's universe, then singletons go to A, complements to B."""
    n = m.n
    _, uni = pri_hrep(m)
    a, b = set(), set()
    for g in (uni.vectors[i] for i in gens):
        supp = [i for i in range(n) if g[i] != 0]
        if len(supp) == 1:
            a.add(supp[0])
        else:
            (z,) = [i for i in range(n) if g[i] == 0]
            b.add(z)
    (x,) = set(range(n)) - a - b
    return PriCone(x, frozenset(a), frozenset(b))


class TestEnumeration:
    def test_hexagon(self):
        pts, graph = enumerate_extreme_pri(pri3())
        assert pts == {tuple(p) for p in itertools.permutations((Q(1) / 2, Q(1) / 3, Q(1) / 6))}
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
        assert pts == {(Q(1) / 4, Q(3) / 4), (Q(2) / 3, Q(1) / 3)}
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
        assert pts == {v.point for v in vertices_bruteforce(h)}
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
            assert pts == {v.point for v in vertices_bruteforce(h)}
            walked = walk(h, uni)
            assert graph.nodes == walked.nodes
            assert graph.edges == walked.edges

    def test_degenerate_pinned_interval(self):
        # l(x1) == u(x1) collapses the polytope to a segment; cones from
        # different distinguished outcomes certify the same endpoint and
        # both engines must agree on that degenerate graph
        m = PRIModel(SP3, (Q(1) / 2, 0, 0), (Q(1) / 2, Q(1) / 2, Q(1) / 2))
        assert is_coherent_pri(m).coherent
        pts, graph = enumerate_extreme_pri(m)
        assert pts == {(Q(1) / 2, Q(0), Q(1) / 2), (Q(1) / 2, Q(1) / 2, Q(0))}
        h, uni = pri_hrep(m)
        walked = walk(h, uni)
        assert graph.nodes == walked.nodes
        assert graph.edges == walked.edges

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

    def test_incoherent_rejected(self):
        m = PRIModel(SP3, (Q(1) / 2, 0, 0), (Q(1) / 2, Q(1) / 2, 1))
        with pytest.raises(IncoherenceError):
            natural_extension_pri(m, (1, 2, 3))

    def test_ties_and_constants(self):
        m = pri3()
        assert natural_extension_pri(m, (1, 1, 1)) == 1
        # tied gamble: 2(p1 + p2) is smallest when p3 takes its upper bound
        assert natural_extension_pri(m, (2, 2, 0)) == 1


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
            for chain in chain_fan(n):
                cc = chain_cone(chain)
                probe = vec([sum(g[i] for g in cc.generators) for i in range(n)])
                for pc in locate_cone(probe):
                    hits[pc] = hits.get(pc, 0) + 1
            assert len(hits) == n * (2 ** (n - 1) - 2)
            assert sum(hits.values()) == math.factorial(n) * (n - 2)
            for pc, count in hits.items():
                assert count == math.factorial(len(pc.a)) * math.factorial(len(pc.b))

    def test_chain_cones_refine_interval_cones(self):
        m = pri_uniform(4, 0, 1)
        for chain in chain_fan(4):
            cc = chain_cone(chain)
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
