"""Fan walk: seeding, wall crossing, graph structure, exports."""

import itertools
import json
import random

import pytest
from conftest import (
    SUPERMOD3,
    event_universe,
    interval_hrep,
    interval_universe,
    lowprob_hrep,
)

from credalfans.cones import SupportUniverse, dual_basis
from credalfans.exactla import ones, rat, unit, vec
from credalfans.fanwalk import (
    MescGraph,
    MescNode,
    _active_table,
    graph_to_dot,
    graph_to_json,
    neighbor_candidates,
    verify_graph,
    walk,
)
from credalfans.polytope import EmptyPolytopeError, HPolytope, vertices_bruteforce

Q = rat

SIMPLEX3 = HPolytope(3, tuple((unit(3, i), 0) for i in range(3)), ((ones(3), 1),))
SIMPLEX3_U = SupportUniverse((unit(3, 0), unit(3, 1), unit(3, 2), ones(3)))
PRI3 = interval_hrep(["1/6"] * 3, ["1/2"] * 3)
PRI3_U = interval_universe(3)
SUP3 = lowprob_hrep(3, SUPERMOD3)
SUP3_U = event_universe(3)


def _simplex_index(*vectors):
    return tuple(sorted(SIMPLEX3_U.vectors.index(v) for v in vectors))


def test_neighbor_candidates_simplex():
    node = MescNode(_simplex_index(unit(3, 1), unit(3, 2)), vec([1, 0, 0]))
    (dropped,) = _simplex_index(unit(3, 1))
    t = dual_basis([SIMPLEX3_U.vectors[i] for i in node.gens], 3)[node.gens.index(dropped)]
    table = _active_table(SIMPLEX3, SIMPLEX3_U)
    out = neighbor_candidates(node, dropped, t, SIMPLEX3, SIMPLEX3_U, table, {})
    assert out == (MescNode(_simplex_index(unit(3, 0), unit(3, 2)), vec([0, 1, 0])),)


def test_neighbor_candidates_drop_must_be_generator():
    node = MescNode(_simplex_index(unit(3, 1), unit(3, 2)), vec([1, 0, 0]))
    (dropped,) = _simplex_index(unit(3, 0))
    with pytest.raises(ValueError):
        neighbor_candidates(node, dropped, ones(3), SIMPLEX3, SIMPLEX3_U,
                            _active_table(SIMPLEX3, SIMPLEX3_U), {})


def test_walk_needs_mass_one_as_the_only_equality():
    pinned = HPolytope(3, SIMPLEX3.inequalities, SIMPLEX3.equalities + ((unit(3, 0), Q("1/2")),))
    doubled = HPolytope(3, SIMPLEX3.inequalities, ((vec([2, 2, 2]), 2),))
    for h in (pinned, doubled, HPolytope(3, SIMPLEX3.inequalities)):
        with pytest.raises(ValueError, match="only equality"):
            _active_table(h, SIMPLEX3_U)
        with pytest.raises(ValueError, match="only equality"):
            walk(h, SIMPLEX3_U)


def test_walk_needs_every_universe_vector_as_a_row_normal():
    extra = SupportUniverse(SIMPLEX3_U.vectors + (vec([1, 1, 0]),))
    with pytest.raises(ValueError, match="not an inequality normal"):
        _active_table(SIMPLEX3, extra)
    with pytest.raises(ValueError, match="not an inequality normal"):
        walk(SIMPLEX3, extra)


def test_walk_simplex_triangle():
    g = walk(SIMPLEX3, SIMPLEX3_U)
    assert g.vertices == {vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])}
    report = verify_graph(g)
    assert report.ok and report.degree_histogram == ((2, 3),)
    assert report.n_nodes == 3 and report.n_edges == 3
    assert not g.incomplete_walls


def test_walk_interval_hexagon():
    g = walk(PRI3, PRI3_U)
    expected = {vec(p) for p in itertools.permutations(["1/2", "1/3", "1/6"])}
    assert g.vertices == expected
    report = verify_graph(g)
    assert report.ok and report.degree_histogram == ((2, 6),)
    assert report.n_nodes == 6 and report.n_edges == 6


def test_walk_supermodular_hexagon():
    g = walk(SUP3, SUP3_U)
    report = verify_graph(g)
    assert report.ok and report.degree_histogram == ((2, 6),)
    assert report.n_nodes == 6
    # chain vertices: lower-bound increments along each permutation
    assert vec(["1/10", "2/5", "1/2"]) in g.vertices
    assert g.vertices == {v.point for v in vertices_bruteforce(SUP3)}


def test_walk_deterministic_and_seed_independent():
    a = walk(PRI3, PRI3_U)
    b = walk(PRI3, PRI3_U)
    assert a == b


def test_walk_empty_polytope_raises():
    empty = interval_hrep(["2/3"] * 3, ["2/3"] * 3)
    with pytest.raises(EmptyPolytopeError):
        walk(empty, interval_universe(3))


def test_walk_matches_oracle_on_random_interval_models():
    from conftest import coherent_intervals

    rng = random.Random(20240817)
    for _ in range(8):
        n = rng.choice([3, 4])
        lows, ups = coherent_intervals(rng, n)
        h = interval_hrep(lows, ups)
        oracle = {v.point for v in vertices_bruteforce(h)}
        assert oracle
        g = walk(h, interval_universe(n))
        assert g.vertices == oracle
        assert not g.incomplete_walls


def test_walk_matches_oracle_on_random_lower_probabilities():
    from conftest import coherentify_lowprob

    rng = random.Random(99)
    done = 0
    while done < 4:
        n = 3
        vals = {}
        for r in range(1, n):
            for s in itertools.combinations(range(n), r):
                vals[frozenset(s)] = Q(rng.randint(0, 3)) / 12
        vals = coherentify_lowprob(n, vals)
        if vals is None:
            continue
        h = lowprob_hrep(n, vals)
        oracle = {v.point for v in vertices_bruteforce(h)}
        g = walk(h, event_universe(n))
        assert g.vertices == oracle
        done += 1


def test_verify_graph_degenerate_degree():
    # the triangle less one edge is a path: connected, degrees 1, 2, 1
    g = walk(SIMPLEX3, SIMPLEX3_U)
    path = MescGraph(g.nodes, frozenset(sorted(g.edges, key=sorted)[1:]))
    bad = verify_graph(path)
    assert bad.degree_histogram == ((1, 2), (2, 1))
    assert not bad.ok and not bad.regular and bad.connected


def test_graph_to_dot_shape():
    g = walk(SIMPLEX3, SIMPLEX3_U)
    dot = graph_to_dot(g)
    assert dot.startswith("graph fan {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -- ") == 3
    assert '[label="0,0,1"]' in dot


def test_graph_to_json_roundtrips_through_json():
    g = walk(PRI3, PRI3_U)
    obj = graph_to_json(g, PRI3_U)
    text = json.dumps(obj)
    back = json.loads(text)
    assert len(back["nodes"]) == 6
    assert len(back["edges"]) == 6
    assert all(len(nd["generators"]) == 2 for nd in back["nodes"])
    # generator ids reference the serialized universe
    assert all(
        0 <= gi < len(back["universe"]) for nd in back["nodes"] for gi in nd["generators"]
    )
