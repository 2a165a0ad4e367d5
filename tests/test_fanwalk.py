"""Fan walk: seeding, wall crossing, graph structure, exports."""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cone_calculus import ones, unit, universe_of, universe_vectors
from conftest import (
    SUPERMOD3,
    coherent_intervals,
    event_universe,
    hrep,
    interval_hrep,
    interval_universe,
    lowprob_hrep,
)

from credalfans import exactla, fanwalk, polytope
from credalfans.chains2mono import (
    LowerProbability,
    as_lower_prevision,
    chain_graph,
    enumerate_extreme_2mono,
    lower_probability_from_json,
)
from credalfans.credal import (
    LowerPrevision,
    OutcomeSpace,
    build_credal_hrep,
    lower_prevision_from_json,
)
from credalfans.exactla import _scaled, format_rat, rat, vec
from credalfans.fanwalk import (
    MescGraph,
    MescNode,
    _active_table,
    _crossed,
    _seed,
    graph_to_dot,
    graph_to_json,
    neighbor_candidates,
    verify_graph,
    walk,
)
from credalfans.polytope import EmptyPolytopeError, _dual_tableau, vertices_bruteforce
from credalfans.pri import PRIModel, enumerate_extreme_pri, pri_from_json, pri_hrep
from test_walk_pinned import _envelope

Q = rat

SIMPLEX3 = hrep(3, [(unit(3, i), 0) for i in range(3)])
SIMPLEX3_U = universe_of((unit(3, 0), unit(3, 1), unit(3, 2), ones(3)))
PRI3 = interval_hrep(["1/6"] * 3, ["1/2"] * 3)
PRI3_U = interval_universe(3)
SUP3 = lowprob_hrep(3, SUPERMOD3)
SUP3_U = event_universe(3)


def _simplex_index(*vectors):
    return tuple(sorted(universe_vectors(SIMPLEX3_U).index(v) for v in vectors))


def _simplex_seed():
    """The table and the seed tableau of SIMPLEX3 at the vertex (0, 0, 1),
    the minimum of the seed's target (6312, 6891, 664)."""
    table = _active_table(SIMPLEX3, SIMPLEX3_U)
    tab = _seed(SIMPLEX3, list(table))
    assert tab.node == MescNode(_simplex_index(unit(3, 0), unit(3, 1)), vec([0, 0, 1]))
    return table, tab


def test_neighbor_candidates_simplex():
    table, tab = _simplex_seed()
    (dropped,) = _simplex_index(unit(3, 0))
    (entering,) = _simplex_index(unit(3, 2))
    ((j, k),) = neighbor_candidates(tab, dropped, table)
    assert j == entering and table[k][0] == entering
    key = _simplex_index(unit(3, 1), unit(3, 2))
    reads = [(y, 1, 0) for y in range(3)]  # the unit rows in order, den 1, bounds 0
    crossed = _crossed(tab, tab.node.gens.index(dropped), k, key, table, reads)
    assert crossed.node == MescNode(key, vec([1, 0, 0]))
    # one column per row, no others: the slack row is p(y) - 0 at (1, 0, 0)
    assert crossed.det == 1 and crossed.rows[-1] == [1, 0, 0]


def test_neighbor_candidates_drop_must_be_generator():
    table, tab = _simplex_seed()
    (dropped,) = _simplex_index(unit(3, 2))
    with pytest.raises(ValueError):
        neighbor_candidates(tab, dropped, table)


def test_walk_one_outcome_is_one_node():
    universe = universe_of((ones(1),))
    g = walk(hrep(1, [(vec([1]), 0)]), universe)
    assert g == MescGraph((MescNode((), vec([1])),), frozenset())
    assert verify_graph(g).ok
    with pytest.raises(EmptyPolytopeError):
        walk(hrep(1, [(vec([1]), 2)]), universe)


def test_walk_needs_every_universe_vector_as_a_row_normal():
    extra = universe_of(universe_vectors(SIMPLEX3_U) + (vec([1, 1, 0]),))
    with pytest.raises(ValueError, match="not the polytope's inequality normals"):
        _active_table(SIMPLEX3, extra)
    with pytest.raises(ValueError, match="not the polytope's inequality normals"):
        walk(SIMPLEX3, extra)


def test_walk_needs_every_row_normal_in_the_universe():
    # the seed's basis may hold any row of h, so each must be a universe vector
    missing = universe_of((unit(3, 0), unit(3, 1), ones(3)))
    with pytest.raises(ValueError, match="not the polytope's inequality normals"):
        walk(SIMPLEX3, missing)


# Draw 14 of perfbench's redundant_envelope_misses at n = 3, a lower
# envelope of three pmfs on six gambles: the seed's LP ends on three rows
# tight at a degenerate vertex, with neither +- 1 column basic.
DEGENERATE_SEED = [((-2, 6, 0), "6/17"), ((3, 5, 2), "29/10"), ((-4, 2, -1), "-32/17"),
                   ((8, -4, 5), "41/10"), ((5, 1, 0), "17/10"), ((3, 4, 7), "71/17")]


def test_seed_at_a_degenerate_vertex_pivots_the_constant_in(monkeypatch):
    lp = LowerPrevision.from_bounds(OutcomeSpace(("x0", "x1", "x2")),
                                    lower=[(g, Q(b)) for g, b in DEGENERATE_SEED])
    h, universe = build_credal_hrep(lp)
    calls, pivot, cross = [], fanwalk._pivot, fanwalk.neighbor_candidates
    monkeypatch.setattr(fanwalk, "_pivot", lambda *args: calls.append("pivot") or pivot(*args))
    monkeypatch.setattr(fanwalk, "neighbor_candidates",
                        lambda *args: calls.append("wall") or cross(*args))
    g = walk(h, universe)
    assert calls[:calls.index("wall")] == ["pivot"]  # the seed's one pivot
    assert g.vertices == {v.point for v in vertices_bruteforce(h)}


def test_walk_simplex_triangle():
    g = walk(SIMPLEX3, SIMPLEX3_U)
    assert g.vertices == {vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])}
    report = verify_graph(g)
    assert report.ok and report.degree_histogram == ((2, 3),)
    assert report.n_nodes == 3 and report.n_edges == 3


def test_walk_interval_hexagon():
    g = walk(PRI3, PRI3_U)
    expected = {vec(p) for p in itertools.permutations(["1/2", "1/3", "1/6"])}
    assert g.vertices == expected
    report = verify_graph(g)
    assert report.ok and report.degree_histogram == ((2, 6),)
    assert report.n_nodes == 6 and report.n_edges == 6


def test_graph_vertices_built_once_and_outside_equality():
    g = walk(PRI3, PRI3_U)
    fresh = MescGraph(g.nodes, g.edges)
    assert g.vertices is g.vertices
    assert g == fresh and hash(g) == hash(fresh)
    assert fresh.vertices == g.vertices and fresh.vertices is not g.vertices
    assert g.pairs is g.pairs
    assert fresh.pairs == g.pairs and fresh.pairs is not g.pairs


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
    # the hexagon less two opposite edges is two paths of three nodes
    hexagon = walk(SUP3, SUP3_U)
    edges = sorted(hexagon.edges, key=sorted)
    near = set().union(*(e for e in edges if e & edges[0]))
    opposite = next(e for e in edges if not e & near)
    split = verify_graph(MescGraph(hexagon.nodes, hexagon.edges - {edges[0], opposite}))
    assert (split.n_edges, split.degree_histogram) == (4, ((1, 4), (2, 2)))
    assert not split.ok and not split.connected and not split.regular
    # one outcome: a single node, no generators and no edges
    m = PRIModel(OutcomeSpace(("x",)), (1,), (1,))
    single = verify_graph(enumerate_extreme_pri(m)[1])
    assert (single.n_nodes, single.n_edges, single.degree_histogram) == (1, 0, ((0, 1),))
    assert single.ok
    empty = verify_graph(MescGraph((), frozenset()))
    assert (empty.n_nodes, empty.n_edges, empty.degree_histogram) == (0, 0, ())
    assert empty.ok and empty.connected and empty.regular


def test_graph_to_dot_shape():
    g = walk(SIMPLEX3, SIMPLEX3_U)
    dot = graph_to_dot(g)
    assert dot.startswith("graph fan {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -- ") == 3
    assert '[label="0,0,1"]' in dot


MODELS = Path(__file__).resolve().parent.parent / "models"


def _model(name):
    return json.loads((MODELS / name).read_text())


# sha256 of graph_to_dot on three model files, one engine each: any change
# to a label, the node order or the edge order shows. The walk's pin was
# re-taken when the walk learned its universe: a 4-cycle, one node per
# vertex, where the walk over every row built a 5-cycle with two nodes at
# (1/2, 0, 1/2); the assessed row p(x1) + 2 p(x2) >= 1/2 there is implied
# by p(x1) + p(x2) >= 1/2 and p(x2) >= 0, and the walk drops it
DOT_PINS = [
    (lambda: enumerate_extreme_pri(pri_from_json(_model("pri_n10_uniform_max.json")))[1],
     "af30be49d077992da9b5f3c6d695f89f61a5380c86dc6f95fac8a192060ce2b1"),
    (lambda: chain_graph(lower_probability_from_json(_model("lowprob_n3_supermodular.json"))),
     "2b40b7492f424e63c9aed72bf5e6a3905726eb16cf0751354f8af6c3aaa2fa17"),
    (lambda: walk(*build_credal_hrep(
        lower_prevision_from_json(_model("prevision_n3_general.json")))),
     "c0d56ddd7e4887486ffc91abb77cec61387b2f048181b2306de9419cdae4abb8"),
]


@pytest.mark.parametrize("graph,digest", DOT_PINS, ids=["pri", "chains", "walk"])
def test_graph_to_dot_pinned(graph, digest):
    assert hashlib.sha256(graph_to_dot(graph()).encode()).hexdigest() == digest


def _lowprob(n, value):
    """The lower probability with value(A) on every proper event A."""
    return LowerProbability(OutcomeSpace(tuple(f"x{i}" for i in range(n))), tuple(
        (frozenset(a), value(set(a))) for size in range(1, n)
        for a in itertools.combinations(range(n), size)))


def _belief(n, masses):
    """The belief function of focal sets with integer masses: Bel(A) is the
    mass of the focal sets inside A over the total."""
    total = sum(m for _, m in masses)
    return _lowprob(n, lambda a: Fraction(sum(m for f, m in masses if f <= a), total))


# Past the oracle's guards on six outcomes, 63 rows with the constant, most
# of them implied: the vacuous lower probability (every event at 0; its
# facets are the 6 rows p(y) >= 0) and a belief function with four focal
# sets. Over every row the walk built 128,520 and 59,172 nodes here.
PAST_THE_GUARDS = {
    "vacuous_n6": lambda: _lowprob(6, lambda a: Fraction(0)),
    "belief_n6_k4": lambda: _belief(6, [({0, 4}, 3), ({3}, 4), ({0, 1, 3, 5}, 4), ({3}, 4)]),
}


@pytest.mark.parametrize("name", sorted(PAST_THE_GUARDS))
def test_walk_past_the_guards_learns_the_facets(monkeypatch, name):
    monkeypatch.setattr(polytope, "check_guards", lambda *args, **kwargs: None)
    lowprob = PAST_THE_GUARDS[name]()
    h, universe = build_credal_hrep(as_lower_prevision(lowprob))
    assert len(universe) == 63
    runs = {"_to_optimum": 0, "_eliminate": 0}  # LPs, and matrix inversions
    for kernel in runs:
        real = getattr(exactla, kernel)
        monkeypatch.setattr(exactla, kernel, lambda *args, kernel=kernel, real=real:
                            runs.update({kernel: runs[kernel] + 1}) or real(*args))
    start = time.perf_counter()
    g = walk(h, universe)
    elapsed = time.perf_counter() - start
    assert runs == {"_to_optimum": 1, "_eliminate": 0}
    assert g.vertices == set(enumerate_extreme_2mono(lowprob))
    assert len(g.nodes) <= 2 * len(g.vertices)
    assert verify_graph(g).ok
    assert elapsed < 1.0


@st.composite
def shared_value_graphs(draw):
    """(graph, universe) whose coordinates mix shared Fraction objects, the
    way engines share bounds, remainders and step masses, with Fractions
    equal to them but distinct."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.fractions(-3, 3, max_denominator=60), min_size=1, max_size=5))

    def vector():
        vals = [draw(st.sampled_from(pool)) for _ in range(n)]
        return tuple(Fraction(a.numerator, a.denominator) if draw(st.booleans()) else a
                     for a in vals)

    universe = universe_of([vector() for _ in range(draw(st.integers(0, 4)))] + [ones(n)])
    key = st.lists(st.integers(0, len(universe) - 1), min_size=1, max_size=2, unique=True)
    keys = sorted(draw(st.lists(key.map(lambda k: tuple(sorted(k))), min_size=1, max_size=6,
                                unique=True)))
    pairs = list(itertools.combinations(keys, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = MescGraph(tuple(MescNode(k, vector()) for k in keys),
                      frozenset(frozenset(e) for e in edges))
    return graph, universe


@settings(max_examples=150, deadline=None)
@given(shared_value_graphs())
def test_exports_match_formatting_every_coordinate(drawn):
    # each value object is formatted once per call; the text must be what
    # format_rat gives coordinate by coordinate
    g, universe = drawn
    plain = {
        "universe": [[format_rat(a) for a in v] for v in universe_vectors(universe)],
        "nodes": [{"id": i, "vertex": [format_rat(a) for a in node.vertex],
                   "generators": list(node.gens)} for i, node in enumerate(g.nodes)],
        "edges": [[i, j] for i, j in g.pairs],
    }
    assert json.dumps(graph_to_json(g, universe), indent=2) == json.dumps(plain, indent=2)
    labels = [f'  n{i} [label="{",".join(map(format_rat, node.vertex))}"];'
              for i, node in enumerate(g.nodes)]
    edges = [f"  n{a} -- n{b};" for a, b in g.pairs]
    assert graph_to_dot(g) == "\n".join(["graph fan {", *labels, *edges, "}"]) + "\n"


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


def test_no_fraction_hashing_once_the_model_is_built(monkeypatch):
    # the walk and the LP read the record's integers: once build_credal_hrep
    # or pri_hrep has returned, neither hashes a Fraction
    lows, ups = coherent_intervals(random.Random(5), 5)
    space5 = OutcomeSpace(tuple(f"x{i}" for i in range(5)))
    models = [build_credal_hrep(_envelope(random.Random(724), 4)),
              pri_hrep(PRIModel(space5, tuple(lows), tuple(ups)))]
    calls = []
    real = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    for h, universe in models:
        assert walk(h, universe).nodes
        for f in itertools.product((-1, 0, 2), repeat=h.dim):
            _dual_tableau(h, _scaled(vec(f))[1])
    assert len(calls) == 0
    hash(rat("1/3"))  # the spy does see a hash
    assert calls
