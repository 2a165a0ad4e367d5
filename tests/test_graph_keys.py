"""Fan-graph node keys are universe indices.

Every engine that builds a graph keys a node by the sorted indices of its
generators in the engine's support universe. Each index must name a row
that is tight at the node's vertex: the cone is the normal cone of that
row's face. Checked on the pri exchange walk and the generic walk over
pri_hrep's universe, and on the chain fan over the event universe, for
interval models whose bounds repeat on a 1/720 grid (ties are common) and
for the degenerate l=1/6, u=1/4 model.
"""

import random

import pytest

from cone_calculus import dot, ones
from conftest import fraction_rows

from credalfans.chains2mono import chain_graph, event_universe
from credalfans.credal import OutcomeSpace
from credalfans.exactla import rat
from credalfans.fanwalk import MescGraph, MescNode, graph_to_json, walk
from credalfans.pri import PRIModel, enumerate_extreme_pri, induced_2mono, is_coherent_pri, pri_hrep


def space(n):
    return OutcomeSpace(tuple(f"x{i}" for i in range(n)))


def tied_model(rng, n):
    """Bounds at 2/4 or 3/4 (lower) and 5/4 or 6/4 (upper) of 1/n, on a
    1/720 grid, tightened to the reachable model."""
    step = 180 // n
    lo = tuple(rat(rng.choice((2, 3)) * step) / 720 for _ in range(n))
    up = tuple(rat(rng.choice((5, 6)) * step) / 720 for _ in range(n))
    return is_coherent_pri(PRIModel(space(n), lo, up)).repaired


def models():
    rng = random.Random(720)
    out = [tied_model(rng, n) for n in (3, 4, 5) for _ in range(3)]
    out.append(PRIModel(space(5), (rat(1) / 6,) * 5, (rat(1) / 4,) * 5))
    return out


def assert_keys_tight(graph, universe, bound):
    n = universe.dim
    assert graph.nodes
    for node in graph.nodes:
        assert len(node.gens) == n - 1
        assert list(node.gens) == sorted(set(node.gens))
        for i in node.gens:
            assert 0 <= i < len(universe)
            row = universe.vectors[i]
            assert row != ones(n)  # the constant direction is lineality
            assert dot(row, node.vertex) == bound(row)


@pytest.mark.parametrize("m", models(), ids=lambda m: f"n{m.n}")
def test_generator_indices_name_tight_rows(m):
    h, universe = pri_hrep(m)
    rows = dict(fraction_rows(h))
    _, graph = enumerate_extreme_pri(m)
    assert_keys_tight(graph, universe, rows.__getitem__)
    assert_keys_tight(walk(h, universe), universe, rows.__getitem__)
    lowprob = induced_2mono(m)
    assert_keys_tight(chain_graph(lowprob), event_universe(m.n),
                      lambda row: lowprob.value(i for i, a in enumerate(row) if a))


def test_graph_to_json_rejects_index_outside_universe():
    m = models()[0]
    _, graph = enumerate_extreme_pri(m)
    small = event_universe(2)
    with pytest.raises(ValueError):
        graph_to_json(graph, small)
    negative = MescGraph((MescNode((-1,), (rat(1), rat(0))),), frozenset())
    with pytest.raises(ValueError):
        graph_to_json(negative, small)
