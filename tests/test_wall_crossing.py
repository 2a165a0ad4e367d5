"""The walk's wall crossing against the universe scan it replaced, and its
integer dual rows against the exact ones.

``fanwalk.neighbor_candidates`` crosses a wall by one minimum-ratio test
along the edge x + lambda t. The reference below is the earlier crossing:
try every universe vector beyond the wall (f . t < 0), solve the active
system of its completed cone, check the point against every row of h, keep
the cones that are MESCs, and of those keep the ones certifying the
lexicographically smallest vertex. Both must return the same tuple at every
wall of the walks on the models below, degenerate ones included.

The ratio test and the MESC test read only signs and ratios of the dual
rows, so the walk's integer rows must be positive multiples of the exact
Fraction rows of ``cone_calculus.dual_basis``.
"""

import random

import pytest
from cone_calculus import absorbed, dual_basis
from conftest import coherent_intervals, interval_hrep, interval_universe
from test_graph_keys import tied_model
from test_walk_pinned import CASES, _envelope

from credalfans.credal import build_credal_hrep
from credalfans.exactla import dot, solve_unique
from credalfans.fanwalk import MescNode, _active_table, _mesc_dual, neighbor_candidates, walk
from credalfans.pri import pri_hrep


def reference_crossing(node, dropped, t, h, universe):
    vectors = universe.vectors
    bounds = {}
    for f, b in h.inequalities:
        bounds[f] = max(b, bounds.get(f, b))
    plain = [j for j, v in enumerate(vectors) if v in bounds]
    shared = tuple(i for i in node.gens if i != dropped)
    eq_rows = [f for f, _ in h.equalities]
    eq_rhs = [b for _, b in h.equalities]
    found = []
    for j in plain:
        if dot(vectors[j], t) >= 0:
            continue
        key = tuple(sorted(shared + (j,)))
        point = solve_unique(eq_rows + [vectors[i] for i in key],
                             eq_rhs + [bounds[vectors[i]] for i in key])
        if point is None or not h.is_feasible(point):
            continue
        dual = dual_basis([vectors[i] for i in key], universe.dim)
        if dual is None or absorbed(dual, (vectors[k] for k in plain if k not in key)):
            continue
        found.append(MescNode(key, point))
    if not found:
        return ()
    best = min(n.vertex for n in found)
    return tuple(sorted((n for n in found if n.vertex == best), key=lambda n: n.gens))


def _random_intervals(n, seed):
    lows, ups = coherent_intervals(random.Random(seed), n)
    return interval_hrep(lows, ups), interval_universe(n)


MODELS = dict(CASES)
MODELS.update({f"random_interval_n{n}_{s}": (lambda n=n, s=s: _random_intervals(n, 50 * n + s))
               for n in (3, 4, 5) for s in (1, 2)})  # CASES has interval_n4..n6
MODELS.update({f"tied_interval_n{n}_pri_hrep":
               (lambda n=n: pri_hrep(tied_model(random.Random(720 + n), n))) for n in (3, 4, 5)})
# the generic builder on inputs the interval builder cannot write: lower
# envelopes on 2n gambles, redundant ones included (degenerate vertices at n = 3, 4)
MODELS.update({f"redundant_envelope_n{n}":
               (lambda n=n: build_credal_hrep(_envelope(random.Random(720 + n), n))) for n in (3, 4, 5)})


@pytest.mark.parametrize("name", sorted(MODELS))
def test_crossing_matches_the_universe_scan_at_every_wall(name):
    h, universe = MODELS[name]()
    table = _active_table(h, universe)
    cache = {}
    graph = walk(h, universe)
    assert graph.nodes
    for node in graph.nodes:
        dual = dual_basis([universe.vectors[i] for i in node.gens], universe.dim)
        for i, t in zip(node.gens, dual):
            expected = reference_crossing(node, i, t, h, universe)
            assert neighbor_candidates(node, i, t, table, cache) == expected


def test_degenerate_walls_are_covered():
    # the l=1/6, u=1/4 reproducer has walls with two neighbours at one vertex
    h, universe = MODELS["interval_reproducer_n5"]()
    table = _active_table(h, universe)
    graph = walk(h, universe)
    widths = set()
    for node in graph.nodes:
        dual = dual_basis([universe.vectors[i] for i in node.gens], universe.dim)
        for i, t in zip(node.gens, dual):
            widths.add(len(neighbor_candidates(node, i, t, table, {})))
    assert max(widths) > 1


@pytest.mark.parametrize("name", sorted(MODELS))
def test_integer_dual_rows_are_positive_multiples_of_the_exact_rows(name):
    h, universe = MODELS[name]()
    table = _active_table(h, universe)
    cache = {}
    for node in walk(h, universe).nodes:
        exact = dual_basis([universe.vectors[i] for i in node.gens], universe.dim)
        for t, ref in zip(_mesc_dual(node.gens, table, cache), exact, strict=True):
            lead = next(k for k, a in enumerate(ref) if a != 0)
            c = t[lead] / ref[lead]
            assert c > 0 and all(a == c * b for a, b in zip(t, ref, strict=True))
