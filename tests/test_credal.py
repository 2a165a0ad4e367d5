"""Lower-prevision layer: H-rep construction, the rows the walk finds
implied, coherence, natural extension, axiom checks, event-family MESC tests, JSON
parsing."""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from credalfans import credal, fanwalk, polytope
from credalfans.chains2mono import LowerProbability, chain_graph, lower_probability_from_json
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
from credalfans.exactla import LpUnbounded, format_rat, vec
from credalfans.fanwalk import graph_to_json, walk
from credalfans.polytope import EmptyPolytopeError, OracleGuardError, lp_min, vertices_bruteforce
from credalfans.pri import PRIModel, enumerate_extreme_pri, pri_from_json, pri_hrep

from cone_calculus import (
    EventCollection,
    cone_additivity_check,
    dot,
    fraction_canonical_row,
    fraction_credal_hrep,
    fraction_lp_min,
    integer_row,
    is_event_mesc,
    ones,
    ray_scan_implied,
    unit,
    universe_of,
    universe_vectors,
)
from conftest import (Q, assessed_rows, fraction_rows, ind, interval_hrep, open_first_wall,
                      rows_hrep, tied_gambles)


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
        assert set(universe_vectors(uni)) == {unit(3, 0), unit(3, 1), unit(3, 2), ones(3)}
        assert {v.point for v in vertices_bruteforce(h)} == {
            (Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))}

    def test_direct_singleton_assessment_implies_row(self):
        lp = LowerPrevision.from_bounds(SP3, lower=[((1, 0, 0), Q(1) / 4)])
        h, uni = build_credal_hrep(lp)
        # p(x1) >= 1/4 subsumes p(x1) >= 0; the other two rows survive
        assert set(universe_vectors(uni)) == {unit(3, 0), unit(3, 1), unit(3, 2), ones(3)}
        assert dict(fraction_rows(h))[unit(3, 0)] == Q(1) / 4
        assert {v.point for v in vertices_bruteforce(h)} == {
            (Q(1), Q(0), Q(0)),
            (Q(1) / 4, Q(3) / 4, Q(0)),
            (Q(1) / 4, Q(0), Q(3) / 4)}

    def test_scaled_assessment_canonicalizes(self):
        lp = LowerPrevision.from_bounds(SP3, lower=[((2, 0, 0), Q(1) / 2)])
        h, _ = build_credal_hrep(lp)
        assert dict(fraction_rows(h))[unit(3, 0)] == Q(1) / 4

    def test_descent_ray_keeps_row(self):
        # p . (1,2,3) >= 0 cannot bound any p(x) below, rows all retained
        lp = LowerPrevision.from_bounds(SP3, lower=[((1, 2, 3), 0)])
        _, uni = build_credal_hrep(lp)
        assert {unit(3, 0), unit(3, 1), unit(3, 2)} <= set(universe_vectors(uni))

    def test_implied_row_without_shortcut(self):
        # upper bounds u == 1/3 on two outcomes force p(x3) >= 1/3 > 0,
        # and no direct assessment sits on 1_{x3}: the row is in the
        # universe, and the walk finds it implied and builds no cone on it
        lp = LowerPrevision.from_bounds(
            SP3, upper=[((1, 0, 0), Q(1) / 3), ((0, 1, 0), Q(1) / 3)]
        )
        h, uni = build_credal_hrep(lp)
        assert {unit(3, 0), unit(3, 1), unit(3, 2)} <= set(universe_vectors(uni))
        assert dropped_rows(h, uni) == [unit(3, 2)]
        g = walk(h, uni)
        gens = {i for node in g.nodes for i in node.gens}
        assert universe_vectors(uni).index(unit(3, 2)) not in gens
        assert g.vertices == {v.point for v in vertices_bruteforce(h)}

    def test_building_the_record_runs_no_lp(self, monkeypatch):
        # p({x2, x3}) <= 3/4 is the row 1_{x1} >= 1/4 on the simplex, which
        # covers x1; the universe is every row and the constant, with no LP
        calls = []
        for name in ("lp_min", "_dual_tableau"):
            monkeypatch.setattr(polytope, name, lambda *args, name=name: calls.append(name))
        lp = LowerPrevision.from_bounds(SP3, upper=[((0, 1, 1), Q(3) / 4)])
        h, uni = build_credal_hrep.__wrapped__(lp)
        assert calls == []
        assert fraction_rows(h) == [(unit(3, 0), Q(1) / 4), (unit(3, 1), 0), (unit(3, 2), 0)]
        assert set(universe_vectors(uni)) == {unit(3, 0), unit(3, 1), unit(3, 2), ones(3)}

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


def dropped_rows(h, universe):
    """The normals, as h's rows are written (``fraction_rows``), of the
    universe rows the walk on (h, universe) drops as implied: those off the
    universe in its table as the walk ends (the table its seed is read
    with, kept up to date). The walk runs afresh, past its cache."""
    tables, real = [], fanwalk._seed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fanwalk, "_seed", lambda h, table: tables.append(table) or real(h, table))
        walk.__wrapped__(h, universe)
    before = fanwalk._active_table(h, universe)
    return [vec(universe[j]) for (j, _), (now, _) in zip(before, tables[0])
            if j is not None and now is None]


@settings(max_examples=100, deadline=None)
@given(assessed_rows())
@example((3, [(ind(3, {0}), Q(1) / 3), ((-Q(1), Q(0), Q(0)), -Q(1) / 3),
              (ind(3, {1}), Q(1) / 6), ((Q(0), -Q(1), Q(0)), -Q(1) / 2)]))
def test_every_row_the_walk_drops_is_implied(model):
    # each row the walk drops is implied by the other rows of the credal
    # set (the oracle on general polyhedra, with no LP of the package), and
    # the walk still returns the oracle's vertex set; the example pins
    # p(x1) = 1/3, a credal set of lower dimension
    lp = rows_model(*model)
    h, universe = build_credal_hrep(lp)
    assume(vertices_bruteforce(h))
    rows = fraction_rows(h)
    for f in dropped_rows(h, universe):
        (b,) = [b for g, b in rows if g == f]
        assert ray_scan_implied(f, b, [r for r in rows if r[0] != f], h.dim), f
    assert walk(h, universe).vertices == {v.point for v in vertices_bruteforce(h)}


def _built_records(lp, m):
    """Every record the builders write for two models: build_credal_hrep's
    for lp and pri_hrep's for m."""
    return [build_credal_hrep.__wrapped__(lp)[0], pri_hrep(m)[0]]


_twelfths = st.lists(st.integers(0, 12), min_size=2, max_size=2).map(sorted)


@settings(max_examples=80, deadline=None)
@given(assessed_rows(), st.lists(_twelfths, min_size=1, max_size=5), st.data())
def test_every_builder_writes_a_credal_set(model, bounds, data):
    # the record refuses a row set without a row on each p(y), so every LP
    # of the package runs on a credal set: lp_min returns the oracle's
    # minimum or finds the set empty. The interval model may be incoherent,
    # and one outcome is drawn too, where p(x) = 1 and each row is zero
    n, rows = model
    m = PRIModel(OutcomeSpace(tuple(f"y{i}" for i in range(len(bounds)))),
                 [Fraction(lo, 12) for lo, _ in bounds], [Fraction(up, 12) for _, up in bounds])
    for h in _built_records(rows_model(n, rows), m):
        units = {integer_row(*fraction_canonical_row(unit(h.dim, y), 0))[0] for y in range(h.dim)}
        assert units <= set(h.rows)
        gambles = st.tuples(*[st.integers(-3, 3).map(Q)] * h.dim)
        fs = data.draw(st.permutations([vec(f) for f in h.rows] + data.draw(st.lists(gambles))))
        vs = vertices_bruteforce(h)
        for f in fs:
            if not vs:
                with pytest.raises(EmptyPolytopeError):
                    lp_min(h, f)
                continue
            assert lp_min(h, f).value == min(dot(f, v.point) for v in vs)


def test_pri_hrep_at_one_outcome_is_a_credal_set():
    # p(x) = 1: the zero row holds exactly when l(x) <= 1 <= u(x)
    for lo, up in ((0, 1), (1, 1), (0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))):
        h, universe = pri_hrep(PRIModel(OutcomeSpace(("x",)), (lo,), (up,)))
        assert h.rows == ((0,),) and len(universe) == 1
        expected = (vec([1]),) if up == 1 else ()
        assert tuple(v.point for v in vertices_bruteforce(h)) == expected
        if up == 1:
            assert lp_min(h, vec([2])).value == 2
        else:
            with pytest.raises(EmptyPolytopeError):
                lp_min(h, vec([2]))


@st.composite
def redundant_previsions(draw):
    """A lower prevision from assessed_rows, with some rows repeated as
    c f + k 1 (c > 0) at the bound c b + k, tied, loosened or tightened by
    1/720."""
    n, rows = draw(assessed_rows())
    seen = {tuple(f) for f, _ in rows}
    for f, b in draw(st.lists(st.sampled_from(rows), max_size=4)):
        c = draw(st.sampled_from((Q(2), Fraction(1, 2), Q(3))))
        k = draw(st.sampled_from((Q(-1), Q(0), Q(2))))
        g = tuple(c * a + k for a in f)
        if g not in seen:
            seen.add(g)
            rows.append((g, c * b + k + draw(st.sampled_from((0, 0, Fraction(-1, 720), Fraction(1, 720))))))
    return rows_model(n, rows)


@settings(max_examples=60, deadline=None)
@given(redundant_previsions())
def test_the_universe_takes_the_builder_keys_as_they_are(lp):
    # build_credal_hrep writes each half-space's primitive normal on ints
    # (test_the_integer_builder_matches_the_fraction_rule); the universe
    # takes those keys as they are, and its rows, in order, are those of
    # the same vectors primitivised and sorted
    _, universe = build_credal_hrep.__wrapped__(lp)
    assert universe_of(map(vec, universe)) == universe


_rationals = st.fractions(-3, 3, max_denominator=12)


@st.composite
def integer_builder_models(draw):
    """A lower prevision on n = 1..5 outcomes: distinct non-constant gambles
    of rational values, negative ones included (``tied_gambles``), some
    half-spaces assessed again as c f + k 1 at another bound, and some unit
    rows c e_x + k 1 assessed."""
    n = draw(st.integers(1, 5))
    rows = [(f, draw(_rationals)) for f in draw(st.lists(tied_gambles(n), max_size=5))]
    for f, _ in draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else ():
        c, k = draw(st.sampled_from((2, Fraction(1, 3)))), draw(_rationals)
        rows.append((tuple(c * a + k for a in f), draw(_rationals)))
    for x in draw(st.lists(st.integers(0, n - 1), max_size=2)) if n > 1 else ():
        c, k = draw(st.sampled_from((1, 3, Fraction(1, 2)))), draw(_rationals)
        rows.append((tuple(c * int(y == x) + k for y in range(n)), draw(_rationals)))
    distinct = {}
    for f, b in rows:
        if len(set(f)) > 1:
            distinct.setdefault(vec(f), b)
    return rows_model(n, distinct.items())


@settings(max_examples=150, deadline=None)
@given(integer_builder_models())
@example(LowerPrevision(OutcomeSpace(("x",)), ()))
@example(rows_model(3, [(unit(3, 0), Q(1) / 5), ((Q(1), Q(-1), Q(-1)), Q(-1) / 2),
                        ((Q(-1) / 2, Q(-3) / 4, Q(0)), Q(-5) / 8)]))
def test_the_integer_builder_matches_the_fraction_rule(lp):
    # the record's rows, bounds and den and the universe's normals, built on
    # the model's integer ratios, are the Fraction rule's keys and bounds
    # (fraction_credal_hrep) scaled to primitive integer normals: one row
    # per half-space at its tightest bound, in the order first seen; at
    # n = 1 the zero row at -1
    h, universe = build_credal_hrep.__wrapped__(lp)
    rows, vectors = fraction_credal_hrep(lp)
    expected = [integer_row(f, b) for f, b in rows]
    den = math.lcm(*(b.denominator for _, b in expected))
    assert (h.rows, h.bounds, h.den) == (tuple(f for f, _ in expected),
                                        tuple(b.numerator * (den // b.denominator)
                                              for _, b in expected), den)
    n = lp.space.n
    assert universe == tuple((0,) * n if v == ones(n) else integer_row(v, 0)[0] for v in vectors)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), _rationals, st.lists(tied_gambles(5), max_size=2))
def test_a_constant_gamble_is_refused(n, c, others):
    space = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
    before = [Assessment(Gamble(space, f[:n]), 0) for f in others if len(set(f[:n])) > 1]
    with pytest.raises(ValueError, match="^assessment on a constant gamble is not representable$"):
        LowerPrevision(space, before[:1] + [Assessment(Gamble(space, (c,) * n), c)])


@settings(max_examples=100, deadline=None)
@given(redundant_previsions(), st.data())
def test_integer_rule_matches_the_fraction_rule(lp, data):
    # the integer key (primitive normal) merges the half-spaces the Fraction
    # key (first nonzero entry 1) merged, in the same order and at the same
    # bounds; the universe sorts as the Fraction vectors did, so the graph's
    # keys and its JSON are unchanged; and the LP on the scaled integer rows
    # makes the choices it made on the Fraction rows, so lp_min's vertex is
    # the same on ties too
    h, universe = build_credal_hrep(lp)
    rows, vectors = fraction_credal_hrep(lp)
    lead = [next(a for a in f if a) for f in h.rows]
    assert [(tuple(Fraction(a, c) for a in f), Fraction(b, h.den * c))
            for f, b, c in zip(h.rows, h.bounds, lead)] == rows
    assert list(universe_vectors(universe)) == vectors
    fs = [f for f, _ in rows] + [vec(f) for f in data.draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * h.dim), min_size=1, max_size=3))]
    for f in fs:
        try:
            expected = fraction_lp_min(rows, f)
        except LpUnbounded:
            with pytest.raises(EmptyPolytopeError):
                lp_min(h, f)
            return
        value, arg = lp_min(h, f)
        assert (value, arg.point) == expected
    if not is_coherent(lp).coherent:
        return
    g = walk(h, universe)
    index, written = {v: i for i, v in enumerate(vectors)}, universe_vectors(universe)
    text = json.dumps({
        "universe": [[format_rat(a) for a in v] for v in vectors],
        "nodes": [{"id": i, "vertex": [format_rat(a) for a in node.vertex],
                   "generators": [index[written[j]] for j in node.gens]}
                  for i, node in enumerate(g.nodes)],
        "edges": [[i, j] for i, j in g.pairs]}, indent=2)
    assert json.dumps(graph_to_json(g, universe), indent=2) == text
    bound = dict(rows)
    assert all(dot(vectors[j], node.vertex) == bound[vectors[j]] for node in g.nodes for j in node.gens)


@settings(max_examples=150, deadline=None)
@given(assessed_rows())
def test_walk_is_exact_on_coherent_models(model):
    # repeated half-spaces (a row and a positive multiple of it plus a
    # constant) merge into one row, so redundant assessments cannot leave a
    # wall open
    lp = rows_model(*model)
    assume(is_coherent(lp).coherent)
    h, universe = build_credal_hrep(lp)
    assert walk(h, universe).vertices == {v.point for v in vertices_bruteforce(h)}


@settings(max_examples=80, deadline=None)
@given(redundant_previsions())
def test_is_coherent_matches_vertex_scan(lp):
    # assessed_rows' models, some with a half-space repeated at a tied,
    # looser or tighter bound: the repeats merge into one row at the
    # tightest, so an assessment may sit below a row tight at a vertex
    assert is_coherent(lp) == scan_report(lp)


@settings(max_examples=150, deadline=None)
@given(assessed_rows())
def test_is_coherent_matches_lp_min(model):
    # each minimum read off the walk's vertex rows is lp_min's on the
    # hand-built record, and the set is empty exactly where lp_min finds it
    n, rows = model
    rep = is_coherent(rows_model(n, rows))
    p = rows_hrep(n, rows)
    try:
        expected = [lp_min(p, f).value for f, _ in rows]
    except EmptyPolytopeError:
        assert rep.empty and not rep.coherent
        assert [c.attained for c in rep.checks] == [None] * len(rows)
        return
    assert not rep.empty
    assert [c.attained for c in rep.checks] == expected
    assert rep.coherent == all(c.tight for c in rep.checks)


def test_no_assessment_is_coherent_with_no_walk_and_no_guard(monkeypatch):
    # past the walk's guards (n = 7), a model with no assessments is
    # coherent without a walk; one assessment makes the walk run and refuse
    sp7 = OutcomeSpace(tuple(f"x{i}" for i in range(7)))

    def no_walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(fanwalk, "walk", no_walk)
    assert is_coherent(LowerPrevision(sp7, ())) == CoherenceReport(True, False, ())
    monkeypatch.undo()
    with pytest.raises(OracleGuardError):
        is_coherent(LowerPrevision.from_bounds(sp7, lower=[(ind(7, {0}), 0)]))


def test_an_open_wall_is_refused_loudly(monkeypatch):
    # a nonempty record leaves no wall open (fanwalk.walk); a walk made to
    # find no neighbour across a wall raises at that wall, and coherence and
    # natural extension with it, rather than answer from a short vertex set
    wall = open_first_wall(monkeypatch)
    lp = supermod3_lp()
    with pytest.raises(AssertionError) as exc:
        is_coherent(lp)
    (key, g), = wall
    assert str(exc.value) == f"the wall of node {key} without generator {g} has no neighbour"
    with pytest.raises(AssertionError, match="has no neighbour"):
        natural_extension(lp, (1, 0, 0))


def test_is_coherent_matches_vertex_scan_on_every_verdict():
    slack = LowerPrevision.from_bounds(SP3, lower=[((1, 2, 3), 0)])
    empty = LowerPrevision.from_bounds(SP3, lower=[((1, 0, 0), Q(2) / 3), ((0, 1, 0), Q(2) / 3)])
    models = (supermod3_lp(), pri3_lp(), slack, empty, LowerPrevision(SP3, ()))
    reports = [is_coherent(lp) for lp in models]
    assert reports == [scan_report(lp) for lp in models]
    assert [(r.coherent, r.empty) for r in reports] == [
        (True, False), (True, False), (False, False), (False, True), (True, False)]


def loose_by_oracle(h):
    """The indices of h's rows whose minimum over the oracle's vertex set
    is above their bound."""
    vs = vertices_bruteforce(h)
    return {i for i, (f, b) in enumerate(zip(h.rows, h.bounds))
            if min(dot(f, v.point) for v in vs) > Fraction(b, h.den)}


@settings(max_examples=120, deadline=None)
@given(assessed_rows())
def test_the_loose_rows_are_those_tight_at_no_vertex(model):
    lp = rows_model(*model)
    h, universe = build_credal_hrep(lp)
    assume(vertices_bruteforce(h))
    assert walk(h, universe).loose_rows == loose_by_oracle(h)


# A lower envelope of three pmfs on eight gambles at n = 4. The walk drops
# three rows: the nonnegativity rows of the last two outcomes, which are
# loose, and the row (1, 3, 0, 10) at 83/29 of the fourth assessment, which
# stays tight at a vertex
DROPPED_TIGHT = [((-2, 0, -2, 8), Fraction(8, 29)), ((-3, 5, 8, 0), Fraction(11, 10)),
                 ((4, 7, 8, 5), Fraction(11, 2)), ((-2, 0, -3, 7), Fraction(-4, 29)),
                 ((-3, 6, 1, 3), Fraction(43, 29)), ((4, -3, 1, 2), Fraction(9, 10)),
                 ((1, 5, 6, -1), Fraction(53, 27)), ((4, 3, 3, 4), Fraction(101, 29))]


def test_a_dropped_row_tight_at_a_vertex_is_not_loose():
    lp = rows_model(4, DROPPED_TIGHT)
    h, universe = build_credal_hrep(lp)
    dropped = dropped_rows(h, universe)
    assert len(dropped) == 3 and vec((1, 3, 0, 10)) in dropped
    loose = walk(h, universe).loose_rows
    assert loose == loose_by_oracle(h) == {h.rows.index((0, 0, 1, 0)), h.rows.index((0, 0, 0, 1))}
    rep = is_coherent(lp)
    assert rep.coherent and rep == scan_report(lp)


def test_a_coherent_model_scans_no_vertex(monkeypatch):
    # coherence reads the walk's loose rows alone; natural extension scales
    # each node's vertex (exactla._scaled) on its first query of a model and
    # keeps the rows
    def no_scan(*args):
        raise AssertionError("a vertex scan ran")

    models = (supermod3_lp(), pri3_lp(), rows_model(4, DROPPED_TIGHT))
    credal._credal_vertices.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(credal, "_scaled", no_scan)
        mp.setattr(credal, "_min_dot", no_scan)
        assert all(is_coherent(lp).coherent for lp in models)
    calls, real = [], credal._scaled
    monkeypatch.setattr(credal, "_scaled", lambda v: calls.append(v) or real(v))
    for lp in models:
        for f in ((1,) + (0,) * (lp.space.n - 1), (0,) * lp.space.n):
            natural_extension(lp, f)
    nodes = [node.vertex for lp in models for node in walk(*build_credal_hrep(lp)).nodes]
    assert calls == nodes


def guard_edge_envelope(seed):
    """Lower envelope of six random pmfs on 18 random gambles at n = 6: 24
    rows, at the oracle's guard edge, and 155-197 vertices at seeds 0-2."""
    rng, n = random.Random(seed), 6
    pmfs = [[Fraction(x, sum(w)) for x in w] for w in
            ([rng.randint(1, 9) for _ in range(n)] for _ in range(6))]
    lows = {}
    while len(lows) < 18:
        g = tuple(Fraction(rng.randint(-4, 8)) for _ in range(n))
        if len(set(g)) > 1:
            lows[g] = min(dot(g, p) for p in pmfs)
    space = OutcomeSpace(tuple(f"x{i}" for i in range(n)))
    return LowerPrevision.from_bounds(space, lower=lows.items())


@pytest.mark.parametrize("seed", range(3))
def test_vertex_rows_keep_their_own_denominators(seed):
    # on these three models a denominator common to the vertex set has
    # 851-1055 bits; each vertex's own has at most 37
    lp = guard_edge_envelope(seed)
    rng = random.Random(seed)
    gambles = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6))
               for _ in range(3)]
    values = [natural_extension(lp, f) for f in gambles]
    h, universe = build_credal_hrep(lp)
    assert values == [lp_min(h, f).value for f in gambles]
    rows = credal._credal_vertices(lp)[0]()
    for d, row in rows:
        assert d == math.lcm(*(Fraction(a, d).denominator for a in row))
    assert {tuple(Fraction(a, d) for a in row) for d, row in rows} == walk(h, universe).vertices


def test_only_the_walk_reports_loose_rows():
    events = [frozenset(a) for r in (1, 2) for a in itertools.combinations(range(3), r)]
    lowprob = LowerProbability(SP3, tuple((e, Q(1) / 10 if len(e) == 1 else Q(1) / 2) for e in events))
    assert chain_graph(lowprob).loose_rows is None
    _, graph = enumerate_extreme_pri(PRIModel(SP3, (Q(1) / 6,) * 3, (Q(1) / 2,) * 3))
    assert graph.loose_rows is None
    graph = walk(*build_credal_hrep(supermod3_lp()))
    assert graph.loose_rows == frozenset()
    assert dataclasses.replace(graph, edges=frozenset()).loose_rows is graph.loose_rows


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

    def test_refusals_keep_their_order_on_a_warm_model(self):
        # incoherence is refused before the gamble is read; then rat refuses
        # a float entry and the length check a gamble of the wrong length
        slack = LowerPrevision.from_bounds(SP3, lower=[((1, 2, 3), 0)])
        empty = LowerPrevision.from_bounds(SP3, lower=[((1, 0, 0), Q(2) / 3), ((0, 1, 0), Q(2) / 3)])
        lp = supermod3_lp()
        for m in (slack, empty):
            with pytest.raises(IncoherenceError):
                natural_extension(m, (0, 0, 0))
        natural_extension(lp, (0, 0, 0))
        hits = credal._credal_vertices.cache_info().hits
        for f in ((1, 0), (0.5, 0, 0), (0.5, 0)):
            with pytest.raises(IncoherenceError, match=r"prevision$"):
                natural_extension(slack, f)
            with pytest.raises(IncoherenceError, match=r"prevision \(empty credal set\)$"):
                natural_extension(empty, f)
        with pytest.raises(ValueError, match="gamble length") as exc:
            natural_extension(lp, (1, 0))
        assert type(exc.value) is ValueError
        for f in ((0.5, 0, 0), (0.5, 0)):
            with pytest.raises(TypeError, match="not an exact rational"):
                natural_extension(lp, f)
        assert credal._credal_vertices.cache_info().hits == hits + 9

    def test_a_warm_query_does_no_fraction_arithmetic(self, monkeypatch):
        # the vertex rows are scaled to ints once per model, and a query
        # scales its gamble and builds its one Fraction without arithmetic
        gambles = {3: [(2, 1, 0), (Q(-1) / 3, Q(5) / 4, 0), (0, 0, 0), (-1, -1, 2)],
                   4: [(1, Q(-7) / 6, Q(1) / 2, 1), (0, 0, 0, 0)]}
        models = (supermod3_lp(), pri3_lp(), LowerPrevision(SP3, ()),
                  LowerPrevision.from_bounds(SP4, lower=[((3, 1, 0, 0), Q(1) / 5)]))
        queries = [(lp, vec(f)) for lp in models for f in gambles[lp.space.n]]
        expected = [natural_extension(lp, f) for lp, f in queries]  # warms the cache
        calls = []
        for name in ("__mul__", "__add__"):
            real = getattr(Fraction, name)

            def counting(self, other, name=name, real=real):
                calls.append(name)
                return real(self, other)

            monkeypatch.setattr(Fraction, name, counting)
        assert [natural_extension(lp, f) for lp, f in queries] == expected
        assert calls == []
        Q(1) * Q(2) + Q(3)  # the spy does see Fraction arithmetic
        assert calls == ["__mul__", "__add__"]


GAMBLE_ENTRIES = st.sampled_from(
    [Q(0), Q(1), Q(-1), Q(2), Q(-3), Q(1) / 2, Q(-1) / 3, Q(5) / 4, Q(-7) / 6])


@settings(max_examples=120, deadline=None)
@given(assessed_rows(), st.data())
def test_natural_extension_is_the_vertex_minimum(model, data):
    # gambles with negative, zero, tied and mixed-denominator entries, and
    # the zero gamble, against a Fraction scan of the oracle's vertex set
    n, rows = model
    lp = rows_model(n, rows)
    assume(is_coherent(lp).coherent)
    vs = vertices_bruteforce(build_credal_hrep(lp)[0])
    gamble = st.one_of(st.just((Q(0),) * n), st.tuples(*[GAMBLE_ENTRIES] * n))
    for f in data.draw(st.lists(gamble, min_size=1, max_size=4)):
        value = natural_extension(lp, f)
        assert type(value) is Fraction
        assert value == min(dot(f, v.point) for v in vs)


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

    def test_parse_gamble_unwraps_only_a_mapping_under_values(self):
        # {"values": {...}} wraps a gamble; on a one-outcome space whose
        # outcome is named "values", {"values": "3"} is the gamble itself
        wrapped = {"values": {"x1": "1", "x2": "0", "x3": "-1/2"}}
        assert parse_gamble(wrapped, SP3).values == (1, 0, Fraction(-1, 2))
        lone = OutcomeSpace(["values"])
        assert parse_gamble({"values": "3"}, lone).values == (3,)
        m = pri_from_json({"type": "pri", "outcomes": ["values"],
                           "lower": {"values": "1"}, "upper": {"values": "1"}})
        assert (m.lower, m.upper) == ((1,), (1,))

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


# JSON values drawn near the model schemas: the field names, outcome names
# and rational literals they use, mixed with arbitrary scalars and nesting
_WORDS = st.sampled_from(["x1", "x2", "x3", "", "x1|x2", "x1|x1", "1/2", "-1", "0", "1/0",
                          "type", "outcomes", "assessments", "event", "gamble", "lower",
                          "upper", "values", "lower_prevision", "lower_probability", "pri"])
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
            | st.floats(allow_nan=False, allow_infinity=False) | _WORDS)
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_WORDS | st.text(max_size=3), inner, max_size=5),
                     max_leaves=12)
_EVENTS = st.lists(_WORDS | st.lists(_JSON, max_size=2), max_size=3)
_MAPS = st.dictionaries(_WORDS, _SCALARS) | _JSON
_ASSESSMENTS = st.lists(
    st.fixed_dictionaries({"event": _EVENTS}, optional={"lower": _SCALARS, "upper": _SCALARS})
    | st.fixed_dictionaries({}, optional={"event": _EVENTS, "gamble": _MAPS,
                                          "lower": _SCALARS, "upper": _SCALARS}),
    min_size=1, max_size=3)
_DOCS = _JSON | st.fixed_dictionaries({
    "outcomes": st.lists(st.sampled_from(["x1", "x2", "x3"]), min_size=1, unique=True)
                | st.lists(_WORDS | _JSON, max_size=3),
    "assessments": _ASSESSMENTS | _JSON,
}, optional={
    "type": st.sampled_from(["lower_prevision", "lower_probability", "pri"]),
    "values": _MAPS, "lower": _MAPS, "upper": _MAPS,
})


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_schema_readers_raise_only_schema_errors(doc):
    readers = (lower_prevision_from_json, lower_probability_from_json, pri_from_json,
               lambda doc: parse_gamble(doc, OutcomeSpace(("x1", "x2"))))
    for read in readers:
        try:
            read(doc)
        except SchemaError:
            pass


@pytest.mark.parametrize("event", [[["x1"]], [{}], ["x1", ["x1"]]])
def test_unhashable_event_member_is_a_schema_error(event):
    doc = dict(TestJson.DOC, assessments=[{"event": event, "lower": "0"}])
    with pytest.raises(SchemaError, match=r"^\$\.assessments\[0\]\.event: "):
        lower_prevision_from_json(doc)


@pytest.mark.parametrize("names,message", [
    (["x1", ["x1"]], "outcome names must be nonempty strings"),
    (["x1", ""], "outcome names must be nonempty strings"),
    (["x1", "x1"], "duplicate outcome names"),
    (["x1", "\ud800"], "outcome names must encode as UTF-8"),  # a lone surrogate
    (["\udfff x"], "outcome names must encode as UTF-8")])
def test_outcome_name_checks_are_schema_errors(names, message):
    with pytest.raises(SchemaError, match=rf"^\$\.outcomes: {message}$"):
        pri_from_json({"type": "pri", "outcomes": names, "lower": {}, "upper": {}})
    with pytest.raises(ValueError, match=message):
        OutcomeSpace(names)
