"""Pinned chain fans of fixed 2-monotone lower probabilities.

Each case is a fixed supermodular lower probability; the pinned values are
the sha256 of ``graph_to_json(chain_graph(L), event_universe(n))`` and of
the sorted vertex list of ``enumerate_extreme_2mono(L)``, so any change to
the node keys, their vertices, the edges, the universe or the vertex set
shows. On the quadratic games all n! chain vertices differ; the sparse
belief function has Moebius mass on four events only, so many chains
share a vertex (27 vertices for 720 chains).
"""

import hashlib
import itertools
import json
import random

import pytest
from conftest import quadratic_lowprob

from credalfans.chains2mono import (
    LowerProbability,
    chain_graph,
    enumerate_extreme_2mono,
    event_universe,
)
from credalfans.credal import OutcomeSpace
from credalfans.exactla import format_rat, rat
from credalfans.fanwalk import graph_to_json


def _lowprob(n, values):
    return LowerProbability(OutcomeSpace(tuple(f"x{i}" for i in range(n))), tuple(values.items()))


def _sparse_belief(n, masses):
    """L(A) = the mass of the events inside A, for masses on a few events."""
    values = {}
    for r in range(1, n):
        for s in itertools.combinations(range(n), r):
            a = frozenset(s)
            values[a] = sum((rat(m) for e, m in masses.items() if e <= a), rat(0))
    return _lowprob(n, values)


CASES = {
    "quadratic_n4": lambda: _lowprob(4, quadratic_lowprob(random.Random(40), 4)),
    "quadratic_n5": lambda: _lowprob(5, quadratic_lowprob(random.Random(50), 5)),
    "quadratic_n6": lambda: _lowprob(6, quadratic_lowprob(random.Random(60), 6, wmax=9)),
    "sparse_belief_n6": lambda: _sparse_belief(6, {
        frozenset({0, 1}): "1/4", frozenset({2, 3, 4}): "1/3",
        frozenset({1, 5}): "1/6", frozenset(range(6)): "1/4"}),
}

# (graph digest, vertex-set digest)
PINNED = {
    "quadratic_n4": ("7dd6dd59ea168f9a35a7163fd0354250ad97e0c32bc3d49796f404d33533505d",
                     "ce3bca3f26bd7004aad2e4c50e30cbfd26809f74a358dd3f5ca21c972dc8b402"),
    "quadratic_n5": ("8294ac7f022e26f5077e013440c7dce6ddd6527187ab722a22cf69aa94fcec1b",
                     "a874bd659ec3cdccd05ca07647a76cd80768b17a026d94678329759313f6226a"),
    "quadratic_n6": ("124b37209df9c10fbb267142f9c6c072baae02cb9bd563f3bc5bbde672d52113",
                     "1906b007686988e03445c743a9a998381e973786b381f80fa8c6426ca4a6e25a"),
    "sparse_belief_n6": ("b92023e74e3ac55fc9fa1fa2d2d9e5555f7a0cce297ddc77a3aace432bb6871a",
                         "783e647835efdbd9db980e8e0c1337588450da6cbf8e241c487914571de5acb2"),
}


def _sha(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_chain_fan_pinned(name):
    lowprob = CASES[name]()
    n = lowprob.space.n
    graph = graph_to_json(chain_graph(lowprob), event_universe(n))
    points = [[format_rat(x) for x in p] for p in sorted(enumerate_extreme_2mono(lowprob))]
    assert (_sha(graph), _sha(points)) == PINNED[name]
