"""Cone membership, MESC recognition by the dual basis, adjacency sign test,
and the order every builder's support universe is printed in."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalfans import chains2mono, pri
from credalfans.credal import OutcomeSpace, build_credal_hrep
from credalfans.exactla import format_rat, rank, rat, vec
from credalfans.fanwalk import MescGraph, graph_to_json
from credalfans.pri import PRIModel, is_coherent_pri, pri_hrep

from cone_calculus import (
    Cone,
    Witness,
    absorbed,
    are_adjacent,
    contains,
    dot,
    dual_basis,
    indicator,
    ones,
    solve_unique,
    unit,
    universe_of,
    universe_vectors,
    witness,
)
from test_walk_pinned import _envelope

Q = rat


def ind(n, members):
    """0/1 indicator vector of a set of outcome indices."""
    return tuple(Q(1) if i in members else Q(0) for i in range(n))


def event_universe(n):
    """All proper nonempty event indicators plus the constant-one vector."""
    vs = []
    for r in range(1, n):
        for s in itertools.combinations(range(n), r):
            vs.append(ind(n, s))
    vs.append(ones(n))
    return universe_of(vs)


CHAIN3 = Cone((ind(3, {0}), ind(3, {0, 1})))


def others(gens, universe):
    """The universe vectors a MESC on gens must not absorb: all but the
    generators and the constant direction, in universe order."""
    return [u for u in universe_vectors(universe) if u not in gens and len(set(u)) > 1]


def test_support_universe_requires_constant_one():
    u = event_universe(3)
    assert len(u) == 7
    assert ones(3) in universe_vectors(u)


def _builder_universes():
    """(id, universe, the Fraction vectors it is built from, written down
    here): pri's interval fan at n = 2..10 (singletons, complements and the
    constant), pri_hrep at n = 1, and the chain fan's events at n = 1..7."""
    for n in range(2, 11):
        yield f"interval_n{n}", pri._interval_fan(n)[1], [unit(n, x) for x in range(n)] + [
            indicator(n, set(range(n)) - {x}) for x in range(n)] + [ones(n)]
    one = PRIModel(OutcomeSpace(("x",)), (Q(1),), (Q(1),))
    yield "interval_n1", pri_hrep(one)[1], [ones(1)]
    for n in range(1, 8):
        yield f"events_n{n}", chains2mono.event_universe(n), [
            indicator(n, s) for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]


@pytest.mark.parametrize("universe, vectors", [u[1:] for u in _builder_universes()],
                         ids=[u[0] for u in _builder_universes()])
def test_every_builder_universe_prints_in_fraction_vector_order(universe, vectors):
    # a universe is its builder's distinct vectors, sorted as Fraction
    # vectors, each over its first nonzero entry, the constant as ones;
    # node keys index it, so graph JSON prints it in that order, and an
    # export's lists are its own: changing them changes no later export
    assert universe_vectors(universe) == tuple(sorted(set(vectors)))
    expected = [[format_rat(a) for a in v] for v in sorted(set(vectors))]
    empty = MescGraph((), frozenset())
    doc = graph_to_json(empty, universe)
    assert doc["universe"] == expected
    doc["universe"][0][0] = "changed"
    doc["universe"].append(["extra"])
    assert graph_to_json(empty, universe)["universe"] == expected


def test_contains_and_relative_interior():
    def interior(c, v):
        # CHAIN3 is simplicial, so its conic witness is unique
        dual = dual_basis(c.generators, 3)
        return absorbed(dual, [v]) is not None and all(a > 0 for a in witness(dual, v).coeffs)

    assert contains(CHAIN3, vec([3, 2, 1]))
    assert interior(CHAIN3, vec([3, 2, 1]))
    # boundary: the generator itself has a zero coefficient partner
    assert contains(CHAIN3, ind(3, {0}))
    assert not interior(CHAIN3, ind(3, {0}))
    # shifting by any constant keeps relative-interior membership
    assert interior(CHAIN3, vec([2, 1, 0]))
    assert interior(CHAIN3, vec([1, 0, -1]))
    assert not contains(CHAIN3, vec([1, 2, 3]))


def test_mesc_chain_cone():
    u = event_universe(3)
    dual = dual_basis(CHAIN3.generators, 3)
    assert dual is not None
    assert absorbed(dual, others(CHAIN3.generators, u)) is None


def test_mesc_size_and_dependence_failures():
    assert dual_basis((ind(3, {0}),), 3) is None  # size
    # 1_{x1,x2} and 1_{x3} sum to the constant-one: not a basis with it
    assert dual_basis((ind(3, {0, 1}), ind(3, {2})), 3) is None


def test_mesc_absorption_witness():
    # three pairwise-overlapping doubletons on 4 outcomes absorb the triple
    u = event_universe(4)
    gens = (ind(4, {0, 1}), ind(4, {1, 2}), ind(4, {0, 2}))
    dual = dual_basis(gens, 4)
    vector = absorbed(dual, others(gens, u))
    assert vector == ind(4, {0, 1, 2})
    assert witness(dual, vector).coeffs == (Q("1/2"), Q("1/2"), Q("1/2"))


def test_mesc_absorption_via_negative_lineality():
    # complements of x1 and x2 absorb 1_{x3} using a negative constant shift
    u = event_universe(3)
    gens = (ind(3, {1, 2}), ind(3, {0, 2}))
    dual = dual_basis(gens, 3)
    vector = absorbed(dual, others(gens, u))
    assert vector == ind(3, {2})
    assert witness(dual, vector).lineality_coeffs == (Q(-1),)


def chain_cone_of_perm(perm):
    n = len(perm)
    gens = [ind(n, set(perm[: i + 1])) for i in range(n - 1)]
    return Cone(tuple(gens))


def test_adjacency_hexagon():
    """The six chain cones at n=3 form a cycle under adjacency: each is
    adjacent exactly to the two chains one transposition away, and shares
    too few generators with the rest to even qualify for the test."""
    perms = list(itertools.permutations(range(3)))
    adjacent_pairs = set()
    for pa, pb in itertools.combinations(perms, 2):
        a, b = chain_cone_of_perm(pa), chain_cone_of_perm(pb)
        try:
            adj = are_adjacent(a, b)
        except ValueError:  # not all generators but one shared
            continue
        if adj:
            adjacent_pairs.add((pa, pb))
    assert len(adjacent_pairs) == 6
    degree = {p: 0 for p in perms}
    for pa, pb in adjacent_pairs:
        degree[pa] += 1
        degree[pb] += 1
    assert all(d == 2 for d in degree.values())


def test_adjacency_same_cone_raises():
    with pytest.raises(ValueError):
        are_adjacent(CHAIN3, CHAIN3)


def test_adjacency_disjoint_generators_raises():
    other = chain_cone_of_perm((2, 1, 0))
    with pytest.raises(ValueError):
        are_adjacent(CHAIN3, other)


def test_adjacency_same_side_is_false():
    # both swapped generators sit on the same side of the shared wall
    a = Cone((ind(3, {0}), ind(3, {1})))
    b = Cone((ind(3, {0}), vec([0, 3, 1])))
    assert not are_adjacent(a, b)
    assert not are_adjacent(b, a)


def test_adjacency_interval_cones():
    # interval-model cones around different centers sharing one generator
    a = Cone((ind(3, {2}), ind(3, {1, 2})))  # center x2
    b = Cone((ind(3, {2}), ind(3, {0, 2})))  # center x1
    assert are_adjacent(a, b)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(4))), st.integers(0, 2))
def test_adjacency_is_symmetric_for_chain_swaps(perm, i):
    perm = tuple(perm)
    swapped = list(perm)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    a, b = chain_cone_of_perm(perm), chain_cone_of_perm(tuple(swapped))
    assert are_adjacent(a, b)
    assert are_adjacent(b, a)


# ------------------------------------------- dual basis against the LP route


def _tied_interval_universe(n):
    """The universe of an interval model whose bounds repeat on a 1/720
    grid: singletons and complements, from pri_hrep."""
    step = 180 // n
    rng = random.Random(720 + n)
    lo = tuple(rat(rng.choice((2, 3)) * step) / 720 for _ in range(n))
    up = tuple(rat(rng.choice((5, 6)) * step) / 720 for _ in range(n))
    m = is_coherent_pri(PRIModel(OutcomeSpace(tuple(f"x{i}" for i in range(n))), lo, up)).repaired
    return pri_hrep(m)[1]


def _envelope_universe(n):
    """The universe build_credal_hrep writes for a lower envelope on 2n
    integer gambles, redundant ones included: row normals the interval
    builder never writes."""
    return build_credal_hrep(_envelope(random.Random(720 + n), n))[1]


UNIVERSES = [u for n in (3, 4, 5)
             for u in (event_universe(n), _tied_interval_universe(n), _envelope_universe(n))]


def lp_mesc_failure(gens, universe):
    """Why the cone on gens is no MESC, by the coordinates route: 'size',
    'dependent' (a rank test), or the first absorbed vector with its
    witness (its coordinates on the basis gens + 1, by solve_unique, all
    nonnegative on gens; the constant-one lineality takes any sign); None
    for a MESC."""
    n = len(universe[0])
    if len(gens) != n - 1:
        return "size"
    basis = list(gens) + [ones(n)]
    if rank(basis) != n:
        return "dependent"
    for u in others(gens, universe):
        x = solve_unique(list(zip(*basis)), u)
        if all(a >= 0 for a in x[: n - 1]):
            return u, Witness(x[: n - 1], x[n - 1:])
    return None


@st.composite
def universe_and_generators(draw):
    universe = draw(st.sampled_from(UNIVERSES))
    n = len(universe[0])
    plain = [v for v in universe_vectors(universe) if v != ones(n)]
    size = draw(st.sampled_from((n - 1, n - 1, n - 1, n - 2)))
    gens = draw(st.lists(st.sampled_from(plain), min_size=size, max_size=size, unique=True))
    return universe, gens


@settings(max_examples=120, deadline=None)
@given(universe_and_generators())
def test_dual_basis_matches_lp_route(drawn):
    universe, gens = drawn
    n = len(universe[0])
    dual = dual_basis(gens, n)
    basis = gens + [ones(n)]
    if dual is None:
        assert len(basis) != n or rank(basis) < n
    else:
        for i, t in enumerate(dual):
            assert [dot(t, b) for b in basis] == [int(i == j) for j in range(n)]
    expected = lp_mesc_failure(gens, universe)
    if expected in ("size", "dependent"):
        assert dual is None
    else:
        assert dual is not None
        found = absorbed(dual, others(gens, universe))
        assert (None if found is None else (found, witness(dual, found))) == expected
