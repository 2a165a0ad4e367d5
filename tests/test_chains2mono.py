"""Lower probabilities and the chain structure of 2-monotone credal sets."""

import itertools
import random

import pytest

from credalfans.chains2mono import (
    EventChain,
    LowerProbability,
    as_lower_prevision,
    chain_fan,
    chain_neighbors,
    chain_vertex,
    choquet,
    enumerate_extreme_2mono,
    is_two_monotone,
    lower_probability_from_json,
)
from credalfans.credal import OutcomeSpace, SchemaError, build_credal_hrep, natural_extension
from credalfans.exactla import dot, unit
from credalfans.polytope import lp_min, vertices_bruteforce

from cone_calculus import are_adjacent, chain_cone, is_comonotone
from conftest import SUPERMOD3, Q, belief_masses, lowprob_hrep, quadratic_lowprob, random_gamble

SP3 = OutcomeSpace(("x1", "x2", "x3"))

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

    def test_belief_functions_always_pass(self):
        rng = random.Random(7)
        for _ in range(10):
            for n in (3, 4):
                sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
                lp = LowerProbability(sp, tuple(belief_masses(rng, n).items()))
                assert is_two_monotone(lp).ok


class TestChains:
    def test_validation(self):
        with pytest.raises(ValueError):
            EventChain((frozenset({0}), frozenset({0, 2})))  # top is not the sure event
        with pytest.raises(ValueError):
            EventChain((frozenset({0}), frozenset({1, 2}), frozenset({0, 1, 2})))
        with pytest.raises(ValueError):
            EventChain((frozenset({0}), frozenset({0, 3}), frozenset({0, 1, 3})))

    def test_vertex_telescopes(self):
        lp = lp3(SUPERMOD3)
        chain = EventChain.from_permutation((0, 1, 2))
        assert chain_vertex(lp, chain) == (Q(1) / 10, Q(2) / 5, Q(1) / 2)
        # under 2-monotonicity every chain point dominates L on every event
        for c in chain_fan(3):
            p = chain_vertex(lp, c)
            assert all(sum(p[x] for x in e) >= v for e, v in lp.table)

    def test_vertex_check_catches_violation(self):
        # without 2-monotonicity some chain point leaves the credal set
        lp = lp3(NONSUPER3)
        chain = EventChain.from_permutation((1, 2, 0))
        p = chain_vertex(lp, chain)
        assert p == (Q(1) / 4, Q(0), Q(3) / 4)
        assert sum(p[x] for x in (0, 1)) < lp.value((0, 1))
        assert any(sum(chain_vertex(lp, c)[x] for x in e) < v
                   for c in chain_fan(3) for e, v in lp.table)

    def test_cone_generators_are_initial_segments(self):
        chain = EventChain.from_permutation((2, 0, 1))
        cone = chain_cone(chain)
        assert set(cone.generators) == {unit(3, 2), (Q(1), Q(0), Q(1))}

    def test_fan_size(self):
        assert len(chain_fan(3)) == 6
        assert len(chain_fan(4)) == 24
        assert len(set(chain_fan(4))) == 24

    def test_neighbors_swap_adjacent_outcomes(self):
        chain = EventChain.from_permutation((0, 1, 2, 3))
        swaps = {(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)}
        assert set(chain_neighbors(chain)) == {EventChain.from_permutation(p) for p in swaps}

    def test_neighbor_relation_is_symmetric(self):
        for chain in chain_fan(4):
            for nb in chain_neighbors(chain):
                assert chain in chain_neighbors(nb)

    def test_neighbor_cones_share_a_wall(self):
        chain = EventChain.from_permutation((0, 1, 2, 3))
        for nb in chain_neighbors(chain):
            assert are_adjacent(chain_cone(chain), chain_cone(nb))


class TestEnumeration:
    def test_supermodular_hexagon(self):
        pts = enumerate_extreme_2mono(lp3(SUPERMOD3))
        assert pts == {tuple(p) for p in itertools.permutations((Q(1) / 10, Q(2) / 5, Q(1) / 2))}

    def test_matches_vertex_oracle(self):
        rng = random.Random(11)
        for n in (3, 4):
            sp = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
            for make in (belief_masses, quadratic_lowprob):
                lp = LowerProbability(sp, tuple(make(rng, n).items()))
                h, _ = build_credal_hrep(as_lower_prevision(lp))
                oracle = {v.point for v in vertices_bruteforce(h)}
                assert enumerate_extreme_2mono(lp) == oracle

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
        assert enumerate_extreme_2mono(lp3(values)) == {dist}


class TestChoquet:
    def test_frozen_supermodular_values(self):
        lp = lp3(SUPERMOD3)
        assert choquet(lp, (2, 1, 0)) == Q(3) / 5
        assert choquet(lp, (0, 1, 2)) == Q(3) / 5
        assert choquet(lp, (5, 1, 1)) == Q(7) / 5
        assert choquet(lp, (7, 2, 1)) == 2

    def test_constant_gamble(self):
        assert choquet(lp3(SUPERMOD3), (Q(1) / 3,) * 3) == Q(1) / 3

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
