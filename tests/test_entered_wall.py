"""The walk skips the wall a node was entered by when its parent's vertex
is non-degenerate.

At such a parent the only tight row off the wall they share is the
generator the crossing dropped, so that wall's one neighbour is the parent
and their edge is already recorded; a node the walk later forgets is at a
degenerate vertex, so the skip loses no re-crossing either. The graph must
therefore equal the one of ``cone_calculus.full_wall_walk``, which crosses
every wall, on every input, degenerate ones included, with fewer calls to
``fanwalk.neighbor_candidates``.
"""

import random

import pytest
from cone_calculus import full_wall_walk
from conftest import belief_masses, coherent_intervals, interval_hrep, interval_universe
from test_fanwalk import PAST_THE_GUARDS
from test_graph_keys import tied_model
from test_walk_generic_inputs import CASES as GENERIC_INPUTS
from test_walk_pinned import CASES as PINNED_INPUTS

from credalfans import fanwalk, polytope
from credalfans.chains2mono import LowerProbability, as_lower_prevision
from credalfans.credal import OutcomeSpace, build_credal_hrep
from credalfans.fanwalk import walk
from credalfans.pri import pri_hrep


def _space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def _belief(seed, n, den):
    """A random belief function; few focal sets (den small) tie its bounds,
    so its credal set is degenerate."""
    return build_credal_hrep(as_lower_prevision(LowerProbability(
        _space(n), tuple(belief_masses(random.Random(seed), n, den).items()))))


MODELS = dict(GENERIC_INPUTS)
MODELS.update(PINNED_INPUTS)
MODELS.update({f"belief_n{n}_{seed}_den{den}": (lambda n=n, seed=seed, den=den: _belief(seed, n, den))
               for n in (3, 4) for seed in (1, 2, 3) for den in (1, 3)})
MODELS.update({f"tied_interval_n{n}": (lambda n=n: pri_hrep(tied_model(random.Random(720 + n), n)))
               for n in (3, 4, 5, 6)})
MODELS.update({f"random_interval_n{n}": (lambda n=n: (lambda lo, up: (
    interval_hrep(lo, up), interval_universe(n)))(*coherent_intervals(random.Random(9 + n), n)))
               for n in (2, 3, 4)})


def _counted(monkeypatch, run, h, universe):
    """(graph, number of neighbor_candidates calls) of run(h, universe)."""
    calls, real = [], fanwalk.neighbor_candidates
    monkeypatch.setattr(fanwalk, "neighbor_candidates",
                        lambda *args: calls.append(None) or real(*args))
    graph = run(h, universe)
    monkeypatch.setattr(fanwalk, "neighbor_candidates", real)
    return graph, len(calls)


def _same_graph(monkeypatch, h, universe):
    """The calls of the walk and of the full-wall walk on (h, universe),
    after checking that their graphs are equal field by field."""
    g, calls = _counted(monkeypatch, walk, h, universe)
    ref, ref_calls = _counted(monkeypatch, full_wall_walk, h, universe)
    assert (g.nodes, g.edges, g.pairs) == (ref.nodes, ref.edges, ref.pairs)
    assert calls <= ref_calls
    return calls, ref_calls


def test_the_skipped_walls_lose_no_edge(monkeypatch):
    counts = {name: _same_graph(monkeypatch, *build()) for name, build in sorted(MODELS.items())}
    # the l = 1/6, u = 1/4 reproducer is degenerate at every vertex: it skips
    # nothing; the generic inputs are not, and skip about a fifth of the walls
    calls, ref_calls = counts["interval_reproducer_n5"]
    assert calls == ref_calls
    generic = [counts[name] for name in GENERIC_INPUTS]
    assert sum(c for c, _ in generic) < 0.9 * sum(r for _, r in generic)
    assert sum(c for c, _ in counts.values()) < sum(r for _, r in counts.values())


@pytest.mark.parametrize("name", ["vacuous_n6", "belief_n6_k4"])
def test_the_skipped_walls_lose_no_edge_past_the_guards(monkeypatch, name):
    # 63 rows, most of them implied: the walk forgets many degenerate nodes
    monkeypatch.setattr(polytope, "check_guards", lambda *args, **kwargs: None)
    _same_graph(monkeypatch, *build_credal_hrep(as_lower_prevision(PAST_THE_GUARDS[name]())))
