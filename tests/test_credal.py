"""Lower-prevision layer: H-rep construction with implied-row marking,
coherence, natural extension, axiom checks, event-family MESC tests, JSON
parsing."""

import itertools

import pytest
from hypothesis import assume, given, settings

from credalfans import credal
from credalfans.credal import (
    Assessment,
    AssessmentCheck,
    CoherenceReport,
    Gamble,
    IncoherenceError,
    LowerPrevision,
    OutcomeSpace,
    SchemaError,
    build_credal_hrep,
    is_coherent,
    lower_prevision_from_json,
    natural_extension,
    parse_gamble,
)
from credalfans.exactla import LpInfeasible, dot, ones, rat, simplex, unit, vec
from credalfans.fanwalk import walk
from credalfans.polytope import HPolytope, vertices_bruteforce

from cone_calculus import EventCollection, cone_additivity_check, is_event_mesc
from conftest import Q, assessed_rows, interval_hrep


SP3 = OutcomeSpace(("x1", "x2", "x3"))
SP4 = OutcomeSpace(("x1", "x2", "x3", "x4"))


def supermod3_lp():
    # singletons at 1/10, doubletons at 1/2; extreme points are the six
    # permutations of (1/10, 2/5, 1/2)
    lows = [(Gamble.indicator(SP3, e), b)
            for e, b in [(("x1",), Q(1) / 10), (("x2",), Q(1) / 10), (("x3",), Q(1) / 10),
                         (("x1", "x2"), Q(1) / 2), (("x1", "x3"), Q(1) / 2), (("x2", "x3"), Q(1) / 2)]]
    return LowerPrevision.from_bounds(SP3, lower=lows)


def pri3_lp():
    lows = [(Gamble.indicator(SP3, (x,)), Q(1) / 6) for x in SP3.names]
    ups = [(Gamble.indicator(SP3, (x,)), Q(1) / 2) for x in SP3.names]
    return LowerPrevision.from_bounds(SP3, lower=lows, upper=ups)


class TestSpacesAndGambles:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            OutcomeSpace(())
        with pytest.raises(ValueError):
            OutcomeSpace(("a", "a"))
        assert SP3.index("x2") == 1
        with pytest.raises(KeyError):
            SP3.index("nope")

    def test_gamble_arithmetic(self):
        # negation, for conjugacy, is the one operation a gamble has
        f = Gamble(SP3, (2, 1, 0))
        assert (-f).values == (Q(-2), Q(-1), Q(0))
        assert Gamble(SP3, (Q(1) / 3,) * 3).is_constant()
        assert not f.is_constant()

    def test_gamble_mismatch(self):
        with pytest.raises(ValueError):
            Gamble(SP3, (1, 2))
        with pytest.raises(ValueError, match="gamble length"):
            natural_extension(supermod3_lp(), Gamble(SP4, (1, 0, 0, 0)).values)

    def test_prevision_validation(self):
        g = Gamble.indicator(SP3, ("x1",))
        with pytest.raises(ValueError):  # constant gamble
            LowerPrevision(SP3, (Assessment(Gamble(SP3, (1, 1, 1)), 1),))
        with pytest.raises(ValueError):  # duplicate gamble
            LowerPrevision(SP3, (Assessment(g, 0), Assessment(g, Q(1) / 4)))

    def test_from_bounds_conjugacy(self):
        lp = LowerPrevision.from_bounds(
            SP3, lower=[((1, 0, 0), Q(1) / 6)], upper=[((1, 0, 0), Q(1) / 2)]
        )
        direct, conj = lp.assessments
        assert direct.gamble.values == (Q(1), Q(0), Q(0)) and direct.lower == Q(1) / 6
        assert conj.gamble.values == (Q(-1), Q(0), Q(0))
        assert conj.lower == Q(-1) / 2

    def test_records_compare_and_hash_by_their_fields(self):
        lp = LowerPrevision.from_bounds(SP3, lower=[((1, 0, 0), Q(1) / 4)])
        twin = LowerPrevision.from_bounds(OutcomeSpace(["x1", "x2", "x3"]),
                                          lower=[([1, 0, 0], "1/4")])
        assert lp == twin and hash(lp) == hash(twin) and lp is not twin
        assert build_credal_hrep(twin) is build_credal_hrep(lp)  # one cache entry
        assert lp != LowerPrevision.from_bounds(SP3, lower=[((1, 0, 0), Q(1) / 3)])
        assert lp != (lp.space, lp.assessments)  # a record is no tuple
        assert repr(SP3) == "OutcomeSpace(('x1', 'x2', 'x3'))"


class TestHrepConstruction:
    def test_vacuous_universe_and_rows(self):
        h, uni = build_credal_hrep(LowerPrevision(SP3, ()))
        # no assessment implies any nonnegativity row, so all three stay
        assert set(uni.vectors) == {unit(3, 0), unit(3, 1), unit(3, 2), ones(3)}
        assert {v.point for v in vertices_bruteforce(h)} == {
            (Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))}

    def test_direct_singleton_assessment_implies_row(self):
        lp = LowerPrevision.from_bounds(SP3, lower=[((1, 0, 0), Q(1) / 4)])
        h, uni = build_credal_hrep(lp)
        # p(x1) >= 1/4 subsumes p(x1) >= 0; the other two rows survive
        assert set(uni.vectors) == {unit(3, 0), unit(3, 1), unit(3, 2), ones(3)}
        assert dict(h.inequalities)[unit(3, 0)] == Q(1) / 4
        assert {v.point for v in vertices_bruteforce(h)} == {
            (Q(1), Q(0), Q(0)),
            (Q(1) / 4, Q(3) / 4, Q(0)),
            (Q(1) / 4, Q(0), Q(3) / 4)}

    def test_scaled_assessment_canonicalizes(self):
        lp = LowerPrevision.from_bounds(SP3, lower=[((2, 0, 0), Q(1) / 2)])
        h, _ = build_credal_hrep(lp)
        assert dict(h.inequalities)[unit(3, 0)] == Q(1) / 4

    def test_descent_ray_keeps_row(self):
        # p . (1,2,3) >= 0 cannot bound any p(x) below, rows all retained
        lp = LowerPrevision.from_bounds(SP3, lower=[((1, 2, 3), 0)])
        _, uni = build_credal_hrep(lp)
        assert {unit(3, 0), unit(3, 1), unit(3, 2)} <= set(uni.vectors)

    def test_implied_row_without_shortcut(self):
        # upper bounds u == 1/3 on two outcomes force p(x3) >= 1/3 > 0,
        # and no direct assessment sits on 1_{x3}: the oracle-path test
        # must mark the x3 row implied.
        lp = LowerPrevision.from_bounds(
            SP3, upper=[((1, 0, 0), Q(1) / 3), ((0, 1, 0), Q(1) / 3)]
        )
        _, uni = build_credal_hrep(lp)
        assert unit(3, 2) not in uni.vectors
        assert {unit(3, 0), unit(3, 1)} <= set(uni.vectors)

    def test_lp_runs_only_for_uncovered_indicators(self, monkeypatch):
        # p({x2, x3}) <= 3/4 is the row 1_{x1} >= 1/4 on the simplex, which
        # covers x1; the implied-row LP runs for x2 and x3 alone
        calls = []
        real = credal._nonneg_row_implied
        monkeypatch.setattr(credal, "_nonneg_row_implied",
                            lambda x, rows, n: calls.append(x) or real(x, rows, n))
        lp = LowerPrevision.from_bounds(SP3, upper=[((0, 1, 1), Q(3) / 4)])
        h, uni = build_credal_hrep.__wrapped__(lp)
        assert calls == [1, 2]
        assert h.inequalities == ((unit(3, 0), Q(1) / 4), (unit(3, 1), 0), (unit(3, 2), 0))
        assert set(uni.vectors) == {unit(3, 0), unit(3, 1), unit(3, 2), ones(3)}

    def test_interval_model_matches_handbuilt_polytope(self):
        lp = pri3_lp()
        h, uni = build_credal_hrep(lp)
        handbuilt = interval_hrep([Q(1) / 6] * 3, [Q(1) / 2] * 3)
        assert {v.point for v in vertices_bruteforce(h)} == {
            v.point for v in vertices_bruteforce(handbuilt)}
        # all nonnegativity rows implied by the lower assessments
        assert len(uni) == 7

    def test_walk_runs_on_built_model(self):
        h, uni = build_credal_hrep(pri3_lp())
        g = walk(h, uni)
        assert len(g.nodes) == 6
        assert g.vertices == {v.point for v in vertices_bruteforce(h)}


class TestCoherence:
    def test_coherent_supermodular(self):
        rep = is_coherent(supermod3_lp())
        assert rep.coherent and not rep.empty
        assert all(c.tight for c in rep.checks)

    def test_unattained_bound_is_incoherent(self):
        # min of (1,2,3) over the simplex is 1, the assessed 0 is slack
        lp = LowerPrevision.from_bounds(SP3, lower=[((1, 2, 3), 0)])
        rep = is_coherent(lp)
        assert not rep.coherent and not rep.empty
        (bad,) = rep.failures()
        assert bad.attained == 1 and bad.lower == 0

    def test_empty_set_is_incoherent(self):
        lp = LowerPrevision.from_bounds(
            SP3, lower=[((1, 0, 0), Q(2) / 3), ((0, 1, 0), Q(2) / 3)]
        )
        rep = is_coherent(lp)
        assert rep.empty and not rep.coherent
        with pytest.raises(IncoherenceError):
            natural_extension(lp, (1, 0, 0))


def ray_scan_implied(x, other_rows, n):
    """Reference for credal._nonneg_row_implied by another route: a
    descent ray (d . g >= 0 on every other normal, d . 1 == 0, d(x) == -1)
    from one phase-1 LP (exactla.simplex without costs) means p(x) is
    unbounded below, so not implied; otherwise the minimum of p(x) over the
    relaxation's vertex set decides."""
    normals = [f for f, _ in other_rows]
    m = len(normals)
    cols = []
    for i in range(n):  # d+ part
        cols.append(vec([g[i] for g in normals] + [1, 1 if i == x else 0]))
    for i in range(n):  # d- part
        cols.append(vec([-g[i] for g in normals] + [-1, -1 if i == x else 0]))
    for j in range(m):  # slack per inequality
        cols.append(vec([-1 if k == j else 0 for k in range(m)] + [0, 0]))
    try:
        simplex(cols, vec([0] * m + [0, -1]))
    except LpInfeasible:
        pass  # no descent ray
    else:
        return False
    vs = vertices_bruteforce(HPolytope(n, tuple(other_rows), ((ones(n), 1),)))
    return bool(vs) and min(v.point[x] for v in vs) >= 0


def scan_report(lp):
    """Reference for is_coherent: every assessment's minimum over the
    oracle's vertex set of the credal set."""
    vs = vertices_bruteforce(build_credal_hrep(lp)[0])
    checks = tuple(
        AssessmentCheck(a.lower, min((dot(a.gamble.values, v.point) for v in vs), default=None))
        for a in lp.assessments)
    return CoherenceReport(bool(vs) and all(c.tight for c in checks), not vs, checks)


def rows_model(n, rows):
    return LowerPrevision.from_bounds(OutcomeSpace(tuple(f"x{i}" for i in range(n))), lower=rows)


@settings(max_examples=40, deadline=None)
@given(assessed_rows())
def test_implied_row_lp_matches_ray_scan(model):
    n, rows = model
    canonical = [credal._canonical_row(vec(f), rat(b)) for f, b in rows]
    for x in range(n):
        others = canonical + [(unit(n, y), Q(0)) for y in range(n) if y != x]
        assert credal._nonneg_row_implied(x, others, n) == ray_scan_implied(x, others, n)


@settings(max_examples=150, deadline=None)
@given(assessed_rows())
def test_walk_is_exact_on_coherent_models(model):
    # repeated half-spaces (a row and a positive multiple of it plus a
    # constant) merge into one row, so redundant assessments cannot leave a
    # wall open or the seed search without a cone
    lp = rows_model(*model)
    assume(is_coherent(lp).coherent)
    h, universe = build_credal_hrep(lp)
    g = walk(h, universe)
    assert g.incomplete_walls == ()
    assert g.vertices == {v.point for v in vertices_bruteforce(h)}


@settings(max_examples=80, deadline=None)
@given(assessed_rows())
def test_is_coherent_matches_vertex_scan(model):
    lp = rows_model(*model)
    assert is_coherent(lp) == scan_report(lp)


def test_is_coherent_matches_vertex_scan_on_every_verdict():
    slack = LowerPrevision.from_bounds(SP3, lower=[((1, 2, 3), 0)])
    empty = LowerPrevision.from_bounds(SP3, lower=[((1, 0, 0), Q(2) / 3), ((0, 1, 0), Q(2) / 3)])
    models = (supermod3_lp(), pri3_lp(), slack, empty, LowerPrevision(SP3, ()))
    reports = [is_coherent(lp) for lp in models]
    assert reports == [scan_report(lp) for lp in models]
    assert [(r.coherent, r.empty) for r in reports] == [
        (True, False), (True, False), (False, False), (False, True), (True, False)]


class TestNaturalExtension:
    def test_vacuous_is_infimum(self):
        lp = LowerPrevision(SP3, ())
        assert natural_extension(lp, (5, 2, 7)) == 2
        assert natural_extension(lp, Gamble(SP3, (-1, 0, 1)).values) == -1

    def test_constant_shift(self):
        lp = supermod3_lp()
        assert natural_extension(lp, (5, 4, 3)) == natural_extension(lp, (2, 1, 0)) + 3

    def test_frozen_supermodular_values(self):
        lp = supermod3_lp()
        assert natural_extension(lp, (2, 1, 0)) == Q(3) / 5
        assert natural_extension(lp, (0, 1, 2)) == Q(3) / 5
        # strictly superadditive pair: the two minima sit in different cones
        assert natural_extension(lp, (2, 2, 2)) == 2
        assert 2 > Q(3) / 5 + Q(3) / 5

    def test_incoherent_input_rejected(self):
        # the coherence report is cached next to the vertex set, so the
        # second query is refused from the cache
        lp = LowerPrevision.from_bounds(SP3, lower=[((1, 2, 3), 0)])
        for f in ((1, 1, 0), (0, 0, 1)):
            with pytest.raises(IncoherenceError):
                natural_extension(lp, f)


class TestCaches:
    def test_filling_a_cache_past_its_bound_evicts(self):
        caches = (credal.build_credal_hrep, credal._credal_vertices)
        sp = OutcomeSpace(("a", "b"))
        size = credal.CACHE_SIZE
        models = [LowerPrevision.from_bounds(sp, lower=[((1, 0), Q(k) / (2 * size))])
                  for k in range(size + 1)]
        for cache in caches:
            cache.cache_clear()
        for k, lp in enumerate(models):
            assert natural_extension(lp, (1, 0)) == Q(k) / (2 * size)
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize == size and info.currsize == size
        misses = credal._credal_vertices.cache_info().misses
        natural_extension(models[0], (1, 0))  # the oldest entry was evicted
        assert credal._credal_vertices.cache_info().misses == misses + 1


class TestAxiomChecks:
    GAMBLES = (
        Gamble(SP3, (2, 1, 0)),
        Gamble(SP3, (0, 1, 2)),
        Gamble(SP3, (1, 0, 1)),
        Gamble(SP3, (Q(1) / 2, Q(1) / 3, Q(5))),
    )

    def test_natural_extension_passes(self):
        lp = supermod3_lp()
        value = {g.values: natural_extension(lp, g.values) for g in self.GAMBLES}
        for g in self.GAMBLES:
            assert min(g.values) <= value[g.values] <= max(g.values)
            for c in (0, 2, 5):
                assert natural_extension(lp, [c * a for a in g.values]) == c * value[g.values]
        for f, g in itertools.combinations_with_replacement(self.GAMBLES, 2):
            total = [a + b for a, b in zip(f.values, g.values)]
            assert natural_extension(lp, total) >= value[f.values] + value[g.values]


class TestConeAdditivity:
    def test_additive_inside_cone(self):
        lp = supermod3_lp()
        vtx = (Q(1) / 10, Q(2) / 5, Q(1) / 2)
        # normal cone there: gens 1_{x1}, 1_{x1,x2}, lineality the constants
        g = (2, 1, 0)
        h = (1, 1, 0)
        assert cone_additivity_check(lp, vtx, g, h) is True
        assert natural_extension(lp, (3, 2, 0)) == Q(3) / 5 + Q(1) / 2

    def test_skip_outside_cone(self):
        lp = supermod3_lp()
        vtx = (Q(1) / 10, Q(2) / 5, Q(1) / 2)
        assert cone_additivity_check(lp, vtx, (2, 1, 0), (0, 1, 2)) is None

    def test_constant_shifts_stay_inside(self):
        lp = supermod3_lp()
        vtx = (Q(1) / 10, Q(2) / 5, Q(1) / 2)
        g = (2, 1, 0)
        h = (0, 0, -1)  # 1_{x1,x2} minus the constant one
        assert cone_additivity_check(lp, vtx, g, h) is True


class TestEventMesc:
    def test_accepted_chain_family(self):
        col = EventCollection(({0}, {0, 1}, {0, 1, 2}))
        rep = is_event_mesc(col, SP3)
        assert rep.ok and rep.reason is None

    def test_requires_sure_event(self):
        with pytest.raises(ValueError):
            is_event_mesc(EventCollection(({0}, {0, 1})), SP3)

    def test_size_failure(self):
        # one event besides the sure one: too few indicators for a basis
        rep = is_event_mesc(EventCollection(({0}, {0, 1, 2})), SP3)
        assert not rep.ok and rep.reason == "no-basis"

    def test_disjoint_pair(self):
        # a disjoint pair absorbs its union: 1_{x1,x2} = 1_{x1} + 1_{x2}
        rep = is_event_mesc(EventCollection(({0}, {1}, {0, 1, 2})), SP3)
        assert rep.reason == "absorbs"
        assert rep.events == (frozenset({0, 1}),)
        assert rep.witness.coeffs == (Q(1), Q(1))

    def test_covering_pair(self):
        # a covering pair with a nonempty intersection C gives
        # 1_A + 1_B = 1 + 1_C; here C = {x2,x3} is the third event's
        # complement, so the indicators and the constant are dependent
        rep = is_event_mesc(
            EventCollection(({0, 1, 2}, {1, 2, 3}, {0, 3}, {0, 1, 2, 3})), SP4)
        assert rep.reason == "no-basis"

    def test_absorbed_event_with_witness(self):
        # three pairwise-overlapping doubletons absorb the triple {x1,x2,x3}
        col = EventCollection(({0, 1}, {1, 2}, {0, 2}, {0, 1, 2, 3}))
        rep = is_event_mesc(col, SP4)
        assert rep.reason == "absorbs"
        assert rep.events == (frozenset({0, 1, 2}),)
        assert rep.witness.coeffs == (Q(1) / 2, Q(1) / 2, Q(1) / 2)
        assert rep.witness.lineality_coeffs == (Q(0),)

    def test_from_labels(self):
        col = EventCollection.from_labels(SP3, (("x1",), ("x1", "x2"), ("x1", "x2", "x3")))
        assert is_event_mesc(col, SP3).ok

    def test_all_singleton_chains_accepted(self):
        for perm in itertools.permutations(range(3)):
            events = [set(perm[: k + 1]) for k in range(3)]
            assert is_event_mesc(EventCollection(tuple(events)), SP3).ok


class TestJson:
    DOC = {
        "type": "lower_prevision",
        "outcomes": ["x1", "x2", "x3"],
        "assessments": [
            {"event": ["x1"], "lower": "1/6", "upper": "1/2"},
            {"gamble": {"x1": "2", "x2": "1", "x3": "0"}, "lower": "3/5"},
        ],
    }

    def test_parse_roundtrip(self):
        lp = lower_prevision_from_json(self.DOC)
        assert lp.space == SP3
        # the two lower bounds in order, then the upper through conjugacy
        assert [(a.gamble.values, a.lower) for a in lp.assessments] == [
            (unit(3, 0), Q(1) / 6),
            ((Q(2), Q(1), Q(0)), Q(3) / 5),
            ((Q(-1), Q(0), Q(0)), Q(-1) / 2)]

    def test_parse_gamble_requires_all_outcomes(self):
        with pytest.raises(SchemaError) as exc:
            parse_gamble({"x1": "1", "x2": "0"}, SP3)
        assert "x3" in str(exc.value)

    def test_bad_rational(self):
        doc = dict(self.DOC, assessments=[{"event": ["x1"], "lower": "0.5"}])
        with pytest.raises(SchemaError) as exc:
            lower_prevision_from_json(doc)
        assert "0.5" in str(exc.value)

    def test_non_ascii_digits_rejected(self):
        # Arabic-Indic one over two: a \d regex and the backend read it as 1/2
        doc = dict(self.DOC, assessments=[{"event": ["x1"], "lower": "\u0661/2"}])
        with pytest.raises(SchemaError):
            lower_prevision_from_json(doc)

    def test_trailing_newline_rejected(self):
        doc = dict(self.DOC, assessments=[{"event": ["x1"], "lower": "1\n"}])
        with pytest.raises(SchemaError):
            lower_prevision_from_json(doc)

    def test_overlong_literal_is_a_schema_error(self):
        # past Python's 4300-digit limit on converting a string to an int
        doc = dict(self.DOC, assessments=[{"event": ["x1"], "lower": "1" * 5001}])
        with pytest.raises(SchemaError) as exc:
            lower_prevision_from_json(doc)
        assert "too many digits" in str(exc.value)

    def test_gamble_and_event_exclusive(self):
        doc = dict(self.DOC, assessments=[
            {"event": ["x1"], "gamble": {"x1": "1", "x2": "0", "x3": "0"}, "lower": "0"}])
        with pytest.raises(SchemaError):
            lower_prevision_from_json(doc)

    def test_missing_bound(self):
        doc = dict(self.DOC, assessments=[{"event": ["x1"]}])
        with pytest.raises(SchemaError):
            lower_prevision_from_json(doc)

    def test_wrong_type_tag(self):
        with pytest.raises(SchemaError):
            lower_prevision_from_json(dict(self.DOC, type="pri"))

    def test_duplicate_assessment_reported_as_schema_error(self):
        doc = dict(self.DOC, assessments=[
            {"event": ["x1"], "lower": "1/6"},
            {"event": ["x1"], "lower": "1/4"},
        ])
        with pytest.raises(SchemaError):
            lower_prevision_from_json(doc)

    def test_interval_doc_walks_to_hexagon(self):
        doc = {
            "type": "lower_prevision",
            "outcomes": ["x1", "x2", "x3"],
            "assessments": [
                {"event": [x], "lower": "1/6", "upper": "1/2"} for x in ("x1", "x2", "x3")
            ],
        }
        lp = lower_prevision_from_json(doc)
        h, uni = build_credal_hrep(lp)
        g = walk(h, uni)
        perms = {tuple(p) for p in itertools.permutations((Q(1) / 2, Q(1) / 3, Q(1) / 6))}
        assert g.vertices == perms
