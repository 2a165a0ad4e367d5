"""Acceptance gate: one test per headline claim, run with -v for a one-line
verdict each.

Every numbered test is self-contained: it builds its own models, runs the
structured engine under test, and where a ground truth exists checks it
against the brute-force vertex oracle or an exhaustive scan. Stated time
limits are asserted with wall-clock measurements.
"""

import itertools
import math
import random
import time

from credalfans.chains2mono import (
    LowerProbability,
    as_lower_prevision,
    choquet,
    enumerate_extreme_2mono,
    is_two_monotone,
)
from credalfans.credal import (
    Gamble,
    LowerPrevision,
    OutcomeSpace,
    build_credal_hrep,
    natural_extension,
)
from credalfans.exactla import rat
from credalfans.fanwalk import MescGraph, MescNode, verify_graph
from credalfans.polytope import vertices_bruteforce
from credalfans.pri import (
    PRIModel,
    as_lower_prevision as pri_prevision,
    count_bounds,
    enumerate_extreme_pri,
    induced_2mono,
    is_coherent_pri,
    natural_extension_pri,
    pri_hrep,
)

from cone_calculus import (
    EventCollection,
    adjacent_swaps,
    are_adjacent,
    chain_cone,
    cone_additivity_check,
    contains,
    dot,
    is_comonotone,
    is_event_mesc,
    locate_cone,
    normal_cone_at,
    reference_chain_vertex,
    vadd,
    vertex_for_cone,
)
from conftest import (
    SUPERMOD3,
    belief_masses,
    coherent_intervals,
    quadratic_lowprob,
    random_gamble,
)

Q = rat


def space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(1, n + 1)))


def uniform_pri(n, low, up):
    return PRIModel(space(n), (Q(low),) * n, (Q(up),) * n)


MAX10 = uniform_pri(10, "1/11", "1/9")
MIN10 = uniform_pri(10, "1/20", "1/9")


def random_pri(rng, n):
    lows, ups = coherent_intervals(rng, n)
    return PRIModel(space(n), tuple(lows), tuple(ups))


def lowprob_from_values(n, values):
    table = tuple(
        (frozenset(s), values.get(frozenset(s), Q(0)))
        for r in range(1, n)
        for s in itertools.combinations(range(n), r)
    )
    return LowerProbability(space(n), table)


def oracle_vertices(lp):
    h, _ = build_credal_hrep(lp)
    return frozenset(v.point for v in vertices_bruteforce(h))


def test_c01_interval_n10_max_has_1260_extreme_points():
    t0 = time.perf_counter()
    points, graph = enumerate_extreme_pri(MAX10)
    elapsed = time.perf_counter() - t0
    assert len(points) == 1260
    assert len(graph.nodes) == 1260
    assert elapsed < 30.0
    print(f"PASS c01: 1260 extreme points in {elapsed:.2f}s")


def test_c02_interval_n10_min_has_90_extreme_points():
    t0 = time.perf_counter()
    points, graph = enumerate_extreme_pri(MIN10)
    elapsed = time.perf_counter() - t0
    assert len(points) == 90
    assert len(graph.nodes) == 90
    assert elapsed < 30.0
    print(f"PASS c02: 90 extreme points in {elapsed:.2f}s")


def test_c03_cone_count_bounds_sharp_at_n10():
    assert count_bounds(10) == (90, 1260)
    # sharpness: the two uniform models attain the ends exactly
    assert len(enumerate_extreme_pri(MIN10)[1].nodes) == 90
    assert len(enumerate_extreme_pri(MAX10)[1].nodes) == 1260
    print("PASS c03: bounds (90, 1260) attained")


def test_c04_interval_enumeration_matches_oracle():
    rng = random.Random(401)
    t0 = time.perf_counter()
    checked = 0
    for n in (3, 4, 5):
        for _ in range(25):
            m = random_pri(rng, n)
            assert is_coherent_pri(m).coherent
            points, _ = enumerate_extreme_pri(m)
            h, _ = pri_hrep(m)
            oracle = frozenset(v.point for v in vertices_bruteforce(h))
            assert len(points) == len(frozenset(points))
            assert frozenset(points) == oracle
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS c04: {checked} interval models match the oracle in {elapsed:.2f}s")


def test_c05_chain_enumeration_matches_oracle():
    rng = random.Random(402)
    for n in (3, 4):
        for i in range(25):
            values = (belief_masses if i % 2 else quadratic_lowprob)(rng, n)
            lowprob = lowprob_from_values(n, values)
            assert is_two_monotone(lowprob).ok
            points = enumerate_extreme_2mono(lowprob)
            assert len(points) == len(frozenset(points))
            assert frozenset(points) == oracle_vertices(as_lower_prevision(lowprob))
            assert len(points) <= math.factorial(n)
    strict = lowprob_from_values(3, SUPERMOD3)
    assert len(enumerate_extreme_2mono(strict)) == 6
    print("PASS c05: 50 chain enumerations match the oracle; strict model gives 3!")


def test_c06_choquet_equals_exact_minimum_when_2monotone():
    rng = random.Random(403)
    checked = 0
    for n in (3, 4):
        for i in range(10):
            values = (belief_masses if i % 2 else quadratic_lowprob)(rng, n)
            lowprob = lowprob_from_values(n, values)
            vs = oracle_vertices(as_lower_prevision(lowprob))
            for _ in range(100):
                f = random_gamble(rng, n)
                exact = min(dot(f, v) for v in vs)
                assert choquet(lowprob, f) == exact
                checked += 1
    print(f"PASS c06: choquet == polytope minimum on {checked} gambles")


def _comonotone_pair(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    f = [None] * n
    g = [None] * n
    fv = gv = Q(0)
    for x in order:
        fv += Q(rng.randint(0, 12)) / 12
        gv += Q(rng.randint(0, 12)) / 12
        f[x] = fv
        g[x] = gv
    return tuple(f), tuple(g)


def test_c07_natural_extension_comonotone_additive_at_n10():
    rng = random.Random(404)
    for m in (MAX10, MIN10):
        for _ in range(100):
            f, g = _comonotone_pair(rng, 10)
            assert is_comonotone(f, g)
            lhs = natural_extension_pri(m, vadd(f, g))
            assert lhs == natural_extension_pri(m, f) + natural_extension_pri(m, g)
    print("PASS c07: 200 comonotone pairs additive on both n=10 models")


def test_c08_induced_event_envelope_is_2monotone_and_tight():
    rng = random.Random(405)
    for n in (3, 4, 5):
        for _ in range(5):
            m = random_pri(rng, n)
            lowprob = induced_2mono(m)
            assert is_two_monotone(lowprob).ok
            full = frozenset(range(n))
            for x in range(n):
                assert lowprob.value(frozenset({x})) == m.lower[x]
                assert lowprob.value(full - {x}) == 1 - m.upper[x]
            for _ in range(20):
                f = random_gamble(rng, n)
                assert choquet(lowprob, f) == natural_extension_pri(m, f)
    print("PASS c08: induced envelopes 2-monotone, tight, and Choquet-exact")


def _chain_graph_n4():
    values = lowprob_from_values(4, quadratic_lowprob(random.Random(9), 4))
    gens_of = {}
    nodes = {}
    for order in itertools.permutations(range(4)):
        node = MescNode(chain_cone(order).generators, reference_chain_vertex(values, order))
        gens_of[order] = node.gens
        nodes[node.gens] = node
    edges = set()
    for order in itertools.permutations(range(4)):
        for nb in adjacent_swaps(order):
            edges.add(frozenset({gens_of[order], gens_of[nb]}))
    return MescGraph(tuple(nodes[k] for k in sorted(nodes)), frozenset(edges))


def test_c09_fan_structure_and_unique_cone_location():
    # chain fan on four outcomes: 4! cones, adjacent by transposition
    graph = _chain_graph_n4()
    rep = verify_graph(graph)
    assert rep.n_nodes == 24 and rep.connected and rep.regular and rep.ok
    assert rep.degree_histogram == ((3, 24),)
    for order in itertools.permutations(range(4)):
        cone = chain_cone(order)
        for nb in adjacent_swaps(order):
            assert are_adjacent(cone, chain_cone(nb))
    # interval fan at the sharp maximum: simple and connected
    points10, g10 = enumerate_extreme_pri(MAX10)
    rep10 = verify_graph(g10)
    assert rep10.n_nodes == 1260 and rep10.connected and rep10.regular and rep10.ok
    assert rep10.degree_histogram == ((9, 1260),)
    # a generic direction lies in exactly one maximal cone of each fan
    rng = random.Random(406)
    chain_cones = [chain_cone(order) for order in itertools.permutations(range(4))]
    for _ in range(200):
        f = tuple(Q(v) for v in rng.sample(range(-200, 200), 4))
        assert sum(1 for c in chain_cones if contains(c, f)) == 1
    for i in range(200):
        f = tuple(Q(v) for v in rng.sample(range(-500, 500), 10))
        valid = [c for c in locate_cone(f) if vertex_for_cone(MAX10, c) is not None]
        assert len(valid) == 1
        value = dot(f, vertex_for_cone(MAX10, valid[0]))
        assert value == natural_extension_pri(MAX10, f)
        if i < 20:  # spot-check against the full vertex set
            assert value == min(dot(f, p) for p in points10)
    print("PASS c09: fans verified; 400 generic directions each in one cone")


def test_c10_event_family_rejection_with_witness():
    sp = space(4)
    bad = EventCollection.from_labels(sp, [
        ["x1", "x2"], ["x2", "x3"], ["x1", "x3"], ["x1", "x2", "x3", "x4"],
    ])
    rep = is_event_mesc(bad, sp)
    assert not rep.ok
    assert rep.reason == "absorbs"
    assert rep.events == (frozenset({0, 1, 2}),)
    assert rep.witness.coeffs == (Q("1/2"), Q("1/2"), Q("1/2"))
    assert rep.witness.lineality_coeffs == (Q(0),)
    # nested families pass: every chain of events is a MESC
    for perm in itertools.permutations(range(4)):
        groups = [[f"x{i + 1}" for i in perm[: k + 1]] for k in range(4)]
        col = EventCollection.from_labels(sp, groups)
        assert is_event_mesc(col, sp).ok
    print("PASS c10: pairwise-overlap family rejected with conic witness")


def _regression_previsions():
    rng = random.Random(407)
    sp3 = space(3)
    singleton = LowerPrevision.from_bounds(
        sp3, lower=[(Gamble.indicator(sp3, ["x1"]), Q("1/4"))])
    general = LowerPrevision.from_bounds(
        sp3,
        lower=[(Gamble(sp3, (Q(1), Q(2), Q(0))), Q("1/2"))],
        upper=[(Gamble.indicator(sp3, ["x3"]), Q("1/2"))])
    models = [LowerPrevision(sp3, ()), singleton, general]
    models.append(as_lower_prevision(lowprob_from_values(3, SUPERMOD3)))
    models.append(as_lower_prevision(lowprob_from_values(4, quadratic_lowprob(rng, 4))))
    models.append(pri_prevision(uniform_pri(3, "1/6", "1/2")))
    models.append(pri_prevision(random_pri(rng, 4)))
    return models


def test_c11_additivity_on_shared_normal_cones():
    rng = random.Random(408)
    pairs = 0
    for lp in _regression_previsions():
        h, _ = build_credal_hrep(lp)
        for v in vertices_bruteforce(h):
            cone = normal_cone_at(h, v.point)
            n = len(v.point)
            for _ in range(20):
                members = []
                for _k in range(2):
                    g = (Q(rng.randint(-3, 3)),) * n  # constant shift, any sign
                    for gen in cone.generators:
                        c = Q(rng.randint(0, 4))
                        g = vadd(g, tuple(c * a for a in gen))
                    members.append(g)
                result = cone_additivity_check(lp, v.point, members[0], members[1])
                assert result is True
                pairs += 1
    # the same equality certifies the value: E restricted to the cone is linear
    lp = _regression_previsions()[3]
    assert natural_extension(lp, (Q(3), Q(2), Q(0))) == Q("11/10")
    print(f"PASS c11: {pairs} in-cone pairs exactly additive")
