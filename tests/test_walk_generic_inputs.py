"""The generic walk on the input shapes of the generic_enum benchmark.

``test_walk_pinned.py`` pins interval models from ``interval_hrep``, a
quadratic lower probability given by hand and two facet-assessed
envelopes. The benchmark also feeds the walk ``pri_hrep`` of interval
models on a 1/720 grid, ``build_credal_hrep`` of a mixed supermodular lower
probability, and facet-assessed envelopes from other seeds; those graphs
are pinned here the same way: the sha256 of ``graph_to_json(walk(h, u),
u)``.

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
# node per vertex, 20 -> 5 nodes at n = 5 and 30 -> 26 and 30 -> 22 at n = 6.
# Re-taken when the open-wall record left the graph: each case had no open
# wall, and its digest with the record's empty list was the one pinned before
PINNED = {
    "facet_envelope_n4_seed43": "c0d011b8a399abd05dedf2803f2e838cf8f09aeb5edc84add0627c26fa70c772",
    "facet_envelope_n4_seed47": "f89ff13ca15606b694f12fb17bb9a0345377e1415e5884ab30615a362f8cf5d2",
    "pri_grid_n5_a": "797aba9e4677d5a18c26f633257cfc68cd7866e6b36d30222ca3ddbcd9b417a7",
    "pri_grid_n5_b": "fa5265f5cd57789b84f911c1ac7d6f74c579a06998592a0dfa4c7bebc11c90f7",
    "pri_grid_n6_a": "f71cf883864e58bcb84395b2c53dc2448ee9d88794a1804440dc9672a1a6d163",
    "pri_grid_n6_b": "14ea3d8eb7c246b5ec309a9a40c7effef6f15f1cd36480fa970d917dae9ccea7",
    "supermodular_n4_a": "8cb4565949271f71be6fd0b90d7daaa06bb67298877ac74aadfeb3411bf37b9b",
    "supermodular_n4_b": "3dc9546c0da096bbe08463e562b4ea8c3b732b4e6fe5bb1b7c9a1868e4688599",
}


def _doc(h, universe):
    return {"graph": graph_to_json(walk(h, universe), universe)}


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
