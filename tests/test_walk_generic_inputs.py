"""The generic walk on the input shapes of the generic_enum benchmark.

``test_walk_pinned.py`` pins interval models from ``interval_hrep``, a
quadratic lower probability given by hand and two facet-assessed
envelopes. The benchmark also feeds the walk ``pri_hrep`` of interval
models on a 1/720 grid, ``build_credal_hrep`` of a mixed supermodular lower
probability, and facet-assessed envelopes from other seeds; those graphs
are pinned here the same way: the sha256 of ``graph_to_json(walk(h, u),
u)`` together with the incomplete walls.

The walk is also invariant under row scaling: listing h's rows in another
order, adding a copy of every row scaled by a large positive rational, and
adding a copy loosened by a tiny amount describe the same polytope with the
same binding rows, so the graph must not move.
"""

import hashlib
import json
import math
import random

import pytest
from conftest import (belief_masses, coherent_intervals, fraction_rows, hrep, interval_hrep,
                      interval_universe)
from test_walk_pinned import _facet_envelope

from credalfans import chains2mono
from credalfans.credal import OutcomeSpace, build_credal_hrep
from credalfans.exactla import rat
from credalfans.fanwalk import graph_to_json, walk
from credalfans.pri import PRIModel, is_coherent_pri, pri_hrep


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def _grid_intervals(seed, n, den=720):
    """Interval model around a near-uniform pmf: lower bounds 40-60% under
    each mass, upper bounds 5-15% over it, rounded outward to the grid and
    tightened to the reachable model."""
    rng = random.Random(seed)
    w = [rng.randint(8, 12) for _ in range(n)]
    lo, up = [], []
    for wi in w:
        p = rat(wi) / sum(w)
        lo.append(rat(math.floor(p * (100 - rng.randint(40, 60)) * den / 100)) / den)
        up.append(rat(math.ceil(p * (100 + rng.randint(5, 15)) * den / 100)) / den)
    return pri_hrep(is_coherent_pri(PRIModel(_space(n), tuple(lo), tuple(up))).repaired)


def _supermodular(seed, n):
    """alpha * Bel + (1 - alpha) * Q^2: a mixture of 2-monotone capacities."""
    rng = random.Random(seed)
    bel = belief_masses(rng, n)
    q = [rng.randint(1, 9) for _ in range(n)]
    alpha = rat(rng.randint(1, 3)) / 4
    table = tuple((a, alpha * v + (1 - alpha) * (rat(sum(q[i] for i in a)) / sum(q)) ** 2)
                  for a, v in bel.items())
    lowprob = chains2mono.LowerProbability(_space(n), table)
    return build_credal_hrep(chains2mono.as_lower_prevision(lowprob))


CASES = {
    "pri_grid_n5_a": lambda: _grid_intervals(501, 5),
    "pri_grid_n5_b": lambda: _grid_intervals(502, 5),
    "pri_grid_n6_a": lambda: _grid_intervals(601, 6),
    "pri_grid_n6_b": lambda: _grid_intervals(602, 6),
    "supermodular_n4_a": lambda: _supermodular(401, 4),
    "supermodular_n4_b": lambda: _supermodular(402, 4),
    "facet_envelope_n4_seed43": lambda: _facet_envelope(43, 4),
    "facet_envelope_n4_seed47": lambda: _facet_envelope(47, 4),
}

# taken on the walk whose wall crossing ran on Fractions; the facet envelopes
# re-taken when build_credal_hrep moved to one row per half-space, with the
# same node, edge and vertex counts (12/18/12 and 10/15/10). Re-taken when
# the walk learned its universe: the facet envelopes keep those counts, their
# universe now holding the implied unit rows; the pri_grid graphs fall to one
# node per vertex, 20 -> 5 nodes at n = 5 and 30 -> 26 and 30 -> 22 at n = 6
PINNED = {
    "facet_envelope_n4_seed43": "6bf40a0351071ce96b106cc7b61951a2eb328b1ad4e83c0d9a66388e87adc6de",
    "facet_envelope_n4_seed47": "d8896c152aeabaf8e67a87f0db7b92fe3a500c1cfd909280c6650ed126b0f14d",
    "pri_grid_n5_a": "7815bc28e22c2affa675432e33884d265abfd0e01ae9ff7fa062db767156b74d",
    "pri_grid_n5_b": "8a103f9d2b880b06485a7f164709a019f77f979812b63129a8daa490e50cd9ef",
    "pri_grid_n6_a": "82f923a8641638562555b3fd324f1618de13af212c2cb0b8864cc1e0cf6b2ca2",
    "pri_grid_n6_b": "34160c98a159a00a8eb06c57fb1ddbeb4671b81998a6f7702a36a09a2dd50fe9",
    "supermodular_n4_a": "ab504b083c22e824b8da6d190e717dc3651e900c9be918c645e9dcfd7c2c617f",
    "supermodular_n4_b": "94f54e60a46060d8a575fc4564cb848456347cfaa6fc2ef6b0a8122e9c882b9e",
}


def _doc(h, universe):
    g = walk(h, universe)
    return {
        "graph": graph_to_json(g, universe),
        "incomplete_walls": [[list(key), i] for key, i in g.incomplete_walls],
    }


def _digest(h, universe):
    return hashlib.sha256(json.dumps(_doc(h, universe), sort_keys=True).encode()).hexdigest()


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_graph_pinned(name):
    assert _digest(*CASES[name]()) == PINNED[name]


def _rescaled(h):
    """h's rows in reverse order, then each row scaled by (10^40 + 1)/7919,
    then each row loosened by 10^-30."""
    rows = fraction_rows(h)[::-1]
    scale, slack = rat(10**40 + 1) / 7919, rat(1) / 10**30
    scaled = [(tuple(scale * a for a in f), scale * b) for f, b in rows]
    loose = [(f, b - slack) for f, b in rows]
    return hrep(h.dim, rows + scaled + loose)


def _interval_model(seed, n, build):
    lows, ups = coherent_intervals(random.Random(seed), n)
    if build == "interval_hrep":
        return interval_hrep(lows, ups), interval_universe(n)
    return pri_hrep(is_coherent_pri(PRIModel(_space(n), tuple(lows), tuple(ups))).repaired)


@pytest.mark.parametrize("build", ["interval_hrep", "pri_hrep"])
@pytest.mark.parametrize("seed", [300, 301, 302, 303])
def test_walk_is_invariant_under_row_scaling(seed, build):
    h, universe = _interval_model(seed, 4, build)
    assert 3 * len(h.rows) <= 24  # under the oracle guard's 25 rows
    assert _doc(_rescaled(h), universe) == _doc(h, universe)
