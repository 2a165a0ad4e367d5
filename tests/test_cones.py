"""Cone membership, MESC recognition by the dual basis, adjacency sign test."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalfans.cones import SupportUniverse, absorbed, dual_basis
from credalfans.credal import OutcomeSpace, build_credal_hrep
from credalfans.exactla import LpInfeasible, dot, is_multiple, ones, rank, rat, simplex, vec, vneg
from credalfans.pri import PRIModel, as_lower_prevision, is_coherent_pri, pri_hrep

from cone_calculus import Cone, Witness, are_adjacent, contains, witness

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
    return SupportUniverse(tuple(vs))


CHAIN3 = Cone((ind(3, {0}), ind(3, {0, 1})))


def others(gens, universe):
    """The universe vectors a MESC on gens must not absorb: all but the
    generators and the constant direction, in universe order."""
    n = universe.dim
    return [u for u in universe.vectors if u not in gens and not is_multiple(u, ones(n))]


def test_support_universe_requires_constant_one():
    with pytest.raises(ValueError):
        SupportUniverse((ind(3, {0}),))
    u = event_universe(3)
    assert len(u) == 7
    assert ones(3) in u.vectors


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


def _tied_interval_universes(n):
    """The universes of an interval model whose bounds repeat on a 1/720
    grid: pri_hrep's (singletons and complements) and build_credal_hrep's
    (singletons and their negatives)."""
    step = 180 // n
    rng = random.Random(720 + n)
    lo = tuple(rat(rng.choice((2, 3)) * step) / 720 for _ in range(n))
    up = tuple(rat(rng.choice((5, 6)) * step) / 720 for _ in range(n))
    m = is_coherent_pri(PRIModel(OutcomeSpace(tuple(f"x{i}" for i in range(n))), lo, up)).repaired
    return [pri_hrep(m)[1], build_credal_hrep(as_lower_prevision(m))[1]]


UNIVERSES = [u for n in (3, 4, 5) for u in [event_universe(n), *_tied_interval_universes(n)]]


def lp_mesc_failure(gens, universe):
    """Why the cone on gens is no MESC, by the LP route: 'size', 'dependent'
    (a rank test), or the first absorbed vector with its witness (one
    phase-1 LP of exactla.simplex per universe vector, the constant-one
    lineality entered as a +- pair of columns); None for a MESC."""
    n = universe.dim
    if len(gens) != n - 1:
        return "size"
    if rank(list(gens) + [ones(n)]) != n:
        return "dependent"
    for u in others(gens, universe):
        try:
            x, _ = simplex(list(gens) + [ones(n), vneg(ones(n))], u)
        except LpInfeasible:
            continue
        return u, Witness(tuple(x[: n - 1]), (x[n - 1] - x[n],))
    return None


@st.composite
def universe_and_generators(draw):
    universe = draw(st.sampled_from(UNIVERSES))
    n = universe.dim
    plain = [v for v in universe.vectors if v != ones(n)]
    size = draw(st.sampled_from((n - 1, n - 1, n - 1, n - 2)))
    gens = draw(st.lists(st.sampled_from(plain), min_size=size, max_size=size, unique=True))
    return universe, gens


@settings(max_examples=120, deadline=None)
@given(universe_and_generators())
def test_dual_basis_matches_lp_route(drawn):
    universe, gens = drawn
    n = universe.dim
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
