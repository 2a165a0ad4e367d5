"""Pinned graphs of the generic walk.

Each case is a fixed in-memory model; the pinned value is the sha256 of
``graph_to_json(walk(h, u), u)``, so any change to the nodes, their
vertices or the edges shows.
The three ``redundant_envelope_*`` cases are lower envelopes assessed with
redundant gambles, some of which repeat a half-space of the simplex up to a
positive factor and a constant. ``build_credal_hrep`` keeps one row per
half-space, and the walk drops the rows it finds implied, so it returns the
oracle's vertex set on them, which ``test_redundant_envelope_walks_exactly``
checks next to the pins.
"""

import hashlib
import json
import random

import pytest
from cone_calculus import dot
from conftest import (
    coherent_intervals,
    event_universe,
    interval_hrep,
    interval_universe,
    lowprob_hrep,
    quadratic_lowprob,
)

from credalfans.credal import LowerPrevision, OutcomeSpace, build_credal_hrep
from credalfans.exactla import rank, rat
from credalfans.fanwalk import graph_to_json, walk
from credalfans.polytope import vertices_bruteforce


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def _envelope(rng, n):
    """Lower envelope of three random pmfs on 2n random gambles."""
    pmfs = []
    for _ in range(3):
        w = [rng.randint(1, 9) for _ in range(n)]
        pmfs.append([rat(x) / sum(w) for x in w])
    lows, seen = [], set()
    while len(lows) < 2 * n:
        g = tuple(rat(rng.randint(-4, 8)) for _ in range(n))
        if len(set(g)) == 1 or g in seen:
            continue
        seen.add(g)
        lows.append((g, min(dot(g, p) for p in pmfs)))
    return LowerPrevision.from_bounds(_space(n), lower=lows)


def _facet_envelope(seed, n):
    """The same credal set as _envelope, assessed by one gamble per facet:
    kept are the gambles whose tight vertices span n - 2 dimensions, one
    per half-space of the simplex."""
    lp = _envelope(random.Random(seed), n)
    verts = [v.point for v in vertices_bruteforce(build_credal_hrep(lp)[0])]
    kept = {}
    for a in lp.assessments:
        g = a.gamble.values
        on = [p for p in verts if dot(g, p) == a.lower]
        if on and rank([tuple(x - y for x, y in zip(p, on[0])) for p in on[1:]]) == n - 2:
            lo, span = min(g), max(g) - min(g)
            kept.setdefault((tuple((x - lo) / span for x in g), (a.lower - lo) / span),
                            (g, a.lower))
    return build_credal_hrep(LowerPrevision.from_bounds(lp.space, lower=list(kept.values())))


def _assessed(rows):
    lower = [(tuple(rat(x) for x in g), rat(b)) for g, b in rows]
    return build_credal_hrep(LowerPrevision.from_bounds(_space(3), lower=lower))


def _intervals(n):
    lows, ups = coherent_intervals(random.Random(100 + n), n)
    return interval_hrep(lows, ups), interval_universe(n)


CASES = {
    "interval_n4": lambda: _intervals(4),
    "interval_n5": lambda: _intervals(5),
    "interval_n6": lambda: _intervals(6),
    "interval_reproducer_n5": lambda: (interval_hrep(["1/6"] * 5, ["1/4"] * 5),
                                       interval_universe(5)),
    "two_monotone_n4": lambda: (lowprob_hrep(4, quadratic_lowprob(random.Random(7), 4)),
                                event_universe(4)),
    "facet_envelope_n3": lambda: _facet_envelope(31, 3),
    "facet_envelope_n4": lambda: _facet_envelope(41, 4),
    "redundant_envelope_a": lambda: _assessed([
        ((0, -4, -2), "-10/7"), ((-4, -3, 6), "-9/4"), ((5, 6, 5), "61/12"),
        ((7, -1, 5), "5"), ((-1, 6, -1), "-5/12"), ((3, -2, 3), "16/7")]),
    "redundant_envelope_b": lambda: _assessed([
        ((3, 5, 1), "65/21"), ((-2, -4, 8), "-9/8"), ((-3, -3, 1), "-9/4"),
        ((2, 6, -2), "46/21"), ((4, 7, -3), "31/12"), ((-4, 6, 2), "38/21")]),
    "redundant_envelope_c": lambda: _assessed([
        ((-4, 3, 1), "-1/2"), ((8, 2, -1), "3/2"), ((-3, 1, 5), "4/5"),
        ((3, 1, -4), "-1"), ((7, 6, 5), "23/4"), ((8, 4, 2), "11/3")]),
}

# facet and redundant envelopes re-taken when build_credal_hrep moved to one
# row per half-space; the others on the walk before it moved to dual bases.
# Re-taken when the walk learned its universe from every row of the record:
# facet_envelope_n4 and redundant_envelope_b, c keep their node, edge and
# vertex counts (14/21/14, 6/6/6, 7/7/7), their universe now holding the
# implied unit rows; redundant_envelope_a falls from 5 nodes to 4, one per
# vertex, and interval_n4 from 16 nodes and 28 edges to 8 and 12 on its 4
# vertices, now a regular graph. Re-taken when the open-wall record left the
# graph: each case had no open wall, and its digest with the record's empty
# list was the one pinned before
PINNED = {
    "facet_envelope_n3": "d4ae06d19e4092198779b97965e796dddc5c4578516ec2510a379ff2fec29fe7",
    "facet_envelope_n4": "1bbb2e59dd18d070a8d1cf908d093d039a317e30e6d5912b0e9594b461bec0b7",
    "interval_n4": "b2f32c2eeb3d91097b0ee8449ebaebb4b83b095a96b7fd24a0c0d77babdfc9fc",
    "interval_n5": "dce6a085a03d373983dffeb218f8799de163e74ae9cfa85065c97c6f917605b4",
    "interval_n6": "1d7ab3cad3253db530ec9d5f9117a9e3043fc518bb584abe1b0388170d44a90e",
    "interval_reproducer_n5": "18d369533c1bc091e0b780870e62fe5c6da57be6bbf872a7b104a1281fe4e265",
    "redundant_envelope_a": "7bfe2d825c64a6adf7eaf61531c82745b47469d74acbc40a687a7930cea43942",
    "redundant_envelope_b": "44e480cc0c7d29c100fc08b2190200c5ddddc47080ffd3b0caf1b35978c3b182",
    "redundant_envelope_c": "6bd7a5bf652aedc71e134d29919476079df717caee3d85b1e53c410f8f54c07e",
    "two_monotone_n4": "7ac8318101599e428f75eabc6edd00887ab9bcaffbc650357c53cac18e4f39e5",
}


def _digest(h, universe):
    doc = {"graph": graph_to_json(walk(h, universe), universe)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_graph_pinned(name):
    assert _digest(*CASES[name]()) == PINNED[name]


@pytest.mark.parametrize("name, count", [("redundant_envelope_a", 4),
                                         ("redundant_envelope_b", 6),
                                         ("redundant_envelope_c", 7)])
def test_redundant_envelope_walks_exactly(name, count):
    h, universe = CASES[name]()
    g = walk(h, universe)
    assert g.vertices == {v.point for v in vertices_bruteforce(h)}
    assert len(g.vertices) == count
