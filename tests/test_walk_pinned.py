"""Pinned graphs of the generic walk.

Each case is a fixed in-memory model; the pinned value is the sha256 of
``graph_to_json(walk(h, u), u)`` together with the walk's incomplete walls,
so any change to the nodes, their vertices, the edges or the walls shows.
The three ``redundant_envelope_*`` cases are lower envelopes assessed with
redundant gambles, some of which repeat a half-space of the simplex up to a
positive factor and a constant. ``build_credal_hrep`` keeps one row per
half-space, and the walk drops the rows it finds implied, so it returns the
oracle's vertex set on them with no incomplete wall, which
``test_redundant_envelope_walks_exactly`` checks next to the pins.
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
# vertices, now a regular graph
PINNED = {
    "facet_envelope_n3": "25f6eb143e145185ecbc2c5ff8644d9c7be2a111617b1c9b54f43083e42d1f5a",
    "facet_envelope_n4": "24e9419d6cc1b5fe5a976adec8104d10d6700764dd3811472ed629ec62fe77c6",
    "interval_n4": "323eacfb3a48cf8cf06e710bf3510682a704dc023f67cbb75bb0b4fd2b54e2ed",
    "interval_n5": "9e523d3ee9ee92cae6e87e1ffef89cb211fdb5db0700a526694f068e48653595",
    "interval_n6": "6387f46fcdd9599573edd175e911d9d8c3b1d92d98a88769f32a01915444251d",
    "interval_reproducer_n5": "04635e1116ea655229a26d9b11bee9c9dd636f9fc5b221ab2af383af42b99fbd",
    "redundant_envelope_a": "e210e0c18eca55ecc2971e816651225fc6c03074ed4c049ab33cb669da48a8f5",
    "redundant_envelope_b": "477cef2ba907b12b39807fe3d7f4f9ab45446251af4bb36cdb58496cf386df92",
    "redundant_envelope_c": "9dacf7c8f8062bc7652933ae0c5ef8d1bdd36592393740b84c06c75287c52fa0",
    "two_monotone_n4": "9d162d59f49d7a4bc1d573543209462dd1b4478afb0fdcdfa47b29da4f636d25",
}


def _digest(h, universe):
    g = walk(h, universe)
    doc = {
        "graph": graph_to_json(g, universe),
        "incomplete_walls": [[list(key), i] for key, i in g.incomplete_walls],
    }
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
    assert g.incomplete_walls == ()
    assert g.vertices == {v.point for v in vertices_bruteforce(h)}
    assert len(g.vertices) == count
