"""The walk leaves no wall open on a nonempty record (``fanwalk.walk``).

The proof: the record is bounded, so the edge beyond any wall ends at a
point where a row negative on the edge is tight, and a row the walk dropped
hands that role to a kept row of its certificate. So ``walk`` raises
(AssertionError) at a wall with no entering row, and never should. These
properties run it where ties make walls degenerate, and check that it
neither raises nor misses a vertex of the brute-force oracle.
"""

import itertools
import random

import pytest
from conftest import belief_masses

from credalfans import polytope
from credalfans.chains2mono import LowerProbability, as_lower_prevision
from credalfans.credal import OutcomeSpace, build_credal_hrep
from credalfans.exactla import rat
from credalfans.fanwalk import walk
from credalfans.polytope import vertices_bruteforce
from credalfans.pri import PRIModel, is_coherent_pri, pri_hrep


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def test_every_proper_interval_model_on_a_grid_walks_to_the_oracle():
    # every proper model with bounds on the quarters at n = 3, as given and
    # repaired: tied and slack bounds, l = u, and faces down to one point
    pairs = [(rat(l) / 4, rat(u) / 4) for l in range(5) for u in range(l, 5)]
    proper = 0
    for bounds in itertools.product(pairs, repeat=3):
        m = PRIModel(_space(3), [l for l, _ in bounds], [u for _, u in bounds])
        rep = is_coherent_pri(m)
        if not rep.proper:
            continue
        proper += 1
        oracle = {v.point for v in vertices_bruteforce(pri_hrep(m)[0])}
        for model in (m, rep.repaired):
            assert walk(*pri_hrep(model)).vertices == oracle, bounds
    assert proper == 1974


@pytest.mark.parametrize("n, count", [(3, 6), (4, 4), (5, 1)])
@pytest.mark.parametrize("den", [3, 24])
def test_belief_functions_walk_to_the_oracle(monkeypatch, n, count, den):
    # a belief function on every event, as a lower prevision; few focal
    # sets (den 3) tie its bounds. At n = 5 its 30 rows are past the
    # guards, lifted here for the walk and the oracle alike
    monkeypatch.setattr(polytope, "check_guards", lambda *args, **kwargs: None)
    for seed in range(count):
        masses = belief_masses(random.Random(seed), n, den)
        h, universe = build_credal_hrep(as_lower_prevision(LowerProbability(
            _space(n), tuple(masses.items()))))
        assert walk(h, universe).vertices == {v.point for v in vertices_bruteforce(h)}, seed
