"""Fan-graph node keys are universe indices.

Every engine that builds a graph keys a node by the sorted indices of its
generators in the engine's support universe. Each index must name a row
that is tight at the node's vertex: the cone is the normal cone of that
row's face. Checked on the pri exchange walk and the generic walk over
pri_hrep's universe, and on the chain fan over the event universe, for
interval models whose bounds repeat on a 1/720 grid (ties are common) and
for the degenerate l=1/6, u=1/4 model.

The interval walk also hands its edges over as position pairs, which must
be the pairs a graph derives from its edges.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_calculus import dot, ones
from conftest import fraction_rows

from credalfans.chains2mono import chain_graph, event_universe
from credalfans.credal import OutcomeSpace
from credalfans.exactla import rat
from credalfans.fanwalk import MescGraph, MescNode, graph_to_json, walk
from credalfans.pri import (
    PRIModel,
    enumerate_extreme_pri,
    induced_2mono,
    is_coherent_pri,
    pri_from_json,
    pri_hrep,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


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


@st.composite
def coherent_interval_models(draw):
    """A coherent interval model on one to seven outcomes: bounds a step of
    denominator up to 12 (often zero, so bounds tie) around a pmf of small
    integer weights, tightened to their reachable form."""
    n = draw(st.integers(1, 7))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    step = st.fractions(0, Fraction(1, 4), max_denominator=12)
    centre = [Fraction(w, sum(weights)) for w in weights]
    lows = tuple(max(Fraction(0), c - draw(step)) for c in centre)
    ups = tuple(min(Fraction(1), c + draw(step)) for c in centre)
    return is_coherent_pri(PRIModel(space(n), lows, ups)).repaired


def assert_pairs_handed_over(m):
    """The interval walk's graph starts with its pairs (from three outcomes
    on, where the exchange walk runs), and they are the sorted position
    pairs i < j that a graph on the same nodes and edges derives."""
    _, graph = enumerate_extreme_pri(m)
    assert ("pairs" in vars(graph)) == (m.n >= 3)
    assert graph.pairs == MescGraph(graph.nodes, graph.edges).pairs
    assert all(i < j for i, j in graph.pairs)
    assert list(graph.pairs) == sorted(set(graph.pairs))


@settings(max_examples=80, deadline=None)
@given(coherent_interval_models())
def test_interval_walk_hands_over_the_derived_pairs(m):
    assert_pairs_handed_over(m)


@pytest.mark.parametrize("source", ["reproducer", "pri_n10_uniform_max.json",
                                    "pri_n10_uniform_min.json"])
def test_interval_walk_hands_over_the_derived_pairs_on_files(source):
    if source == "reproducer":
        m = models()[-1]
    else:
        m = pri_from_json(json.loads((MODELS / source).read_text()))
    assert_pairs_handed_over(m)
