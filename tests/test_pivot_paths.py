"""The walk's per-node kernels against their general forms.

``exactla._pivot`` takes short paths where its integers allow: no division
at det = 1, one subtraction or addition of the pivot row for f = +-1 at
p = det = 1, and no work for a row with f = 0 at p = det. Each is checked
here against the general Edmonds pivot (``cone_calculus.reference_pivot``)
on hand-picked tableaux, one per path, and on Hypothesis tableaux reached
from integer matrices by pivots. ``_pivot`` writes into none of its input
rows, so a copied table may share the rows it leaves.

``fanwalk.neighbor_candidates`` runs its ratio test over the negative
entries of the dropped generator's row alone; ``full_scan_candidates``
below is the scan of every column it replaced. Both must give the same
tuple at every wall of walks over generic_enum-style models (interval
models on a grid, mixed supermodular lower probabilities, facet-assessed
envelopes) and the tied interval model l = 1/6, u = 1/4, n = 5.
"""

import random
from collections import Counter

import pytest
from cone_calculus import reference_pivot
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_walk_generic_inputs import CASES as GENERIC_CASES
from test_walk_generic_inputs import _grid_intervals, _supermodular
from test_walk_pinned import CASES as PINNED_CASES
from test_walk_pinned import _facet_envelope

from credalfans import fanwalk
from credalfans.exactla import _pivot
from credalfans.fanwalk import _target, walk


def checked_pivot(t, det, r, c):
    """_pivot on a copy of t against reference_pivot, t's rows unwritten;
    returns (rows, new det, the rows but the pivot row that _pivot kept)."""
    before = [list(row) for row in t]
    expected, p = reference_pivot(t, det, r, c)
    rows = list(t)
    assert _pivot(rows, det, r, c) == p
    assert rows == expected
    assert t == before  # no row written into
    return rows, p, [i for i, (a, b) in enumerate(zip(rows, t)) if a is b and i != r]


def test_det_one_pivot_one_rows_by_their_entry():
    # p = det = 1: f = 1 subtracts the pivot row, f = -1 adds it, f = 0
    # keeps the row as it is, any other f takes p a - f b
    t = [[1, 2, -1, 0],
         [1, 0, 3, 4],
         [-1, 4, 2, -2],
         [0, 5, 7, 1],
         [3, 1, 1, -5]]
    rows, p, kept = checked_pivot(t, 1, 0, 0)
    assert p == 1 and kept == [3]
    assert rows[1] == [0, -2, 4, 4] and rows[2] == [0, 6, 1, -2] and rows[4] == [0, -5, 4, -5]


def test_det_one_negative_unit_pivot_is_negated_first():
    t = [[-1, 2, 3], [1, 1, 1], [-2, 0, 1], [0, 4, 4]]
    rows, p, kept = checked_pivot(t, 1, 0, 0)
    assert p == 1 and rows[0] == [1, -2, -3] and kept == [3]


def test_det_one_larger_pivot_multiplies_every_changed_row():
    # p = 3 at det 1: no division, and a row with f = 0 is scaled by 3
    t = [[3, 1, 2], [1, 1, 0], [0, 2, -1], [-1, 0, 5]]
    rows, p, kept = checked_pivot(t, 1, 0, 0)
    assert p == 3 and kept == [] and rows[2] == [0, 6, -3]


def test_pivot_equal_to_det_keeps_rows_with_a_zero_entry():
    # from det 3, a pivot of 3 = det: the row with f = 0 is multiplied by
    # p / det = 1, so it is kept; the row with f = -6 is divided, checked
    t, det = reference_pivot([[3, 1, 0, 1], [3, -3, 0, -2], [2, 3, 0, 0]], 1, 2, 1)
    assert det == 3 and t[0][3] == 3 and t[2][3] == 0
    rows, p, kept = checked_pivot(t, det, 0, 3)
    assert p == det and kept == [2]


def test_det_above_one_divides_every_changed_row():
    # det 3 and a pivot of 9, every f nonzero; and a unit pivot at det 2,
    # where f = +-1 still takes the checked division
    t, det = reference_pivot([[3, -2, -3, 0], [-3, 3, 0, 0], [1, 3, 3, -3]], 1, 2, 3)
    assert det == 3
    rows, p, kept = checked_pivot(t, det, 0, 0)
    assert p == 9 and kept == []
    t, det = reference_pivot([[-2, -2, -3, -1], [-3, 3, -3, -1], [-1, 2, -2, 0]], 1, 2, 2)
    assert det == 2 and abs(t[0][0]) == 1 and t[2][0] == 1
    rows, p, kept = checked_pivot(t, det, 0, 0)
    assert p == 1 and kept == []


@st.composite
def tableaux(draw):
    """(t, det, r, c): a tableau reached from an integer matrix at det 1 by
    up to three pivots on nonzero entries, every one exact (each row holds
    det times the rational values of [A | I] in the basis), and a nonzero
    entry to pivot on next."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    t = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    det = 1
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        if t[r][c]:
            t, det = reference_pivot(t, det, r, c)
    nonzero = [(r, c) for r in range(m) for c in range(n) if t[r][c]]
    assume(nonzero)
    return (t, det, *draw(st.sampled_from(nonzero)))


@settings(max_examples=300, deadline=None)
@given(tableaux())
def test_pivot_matches_the_general_pivot(case):
    t, det, r, c = case
    rows, p, kept = checked_pivot(t, det, r, c)
    assert kept == [i for i, row in enumerate(t) if i != r and not row[c] and p == det]


def full_scan_candidates(tab, dropped, table):
    """The ratio test over every column of the generator's row, passing
    over its entries that are not negative one by one."""
    num, den, entering = 0, 0, []
    row = tab.rows[tab.node.gens.index(dropped)]
    for k, ((j, _), a, r) in enumerate(zip(table, row, tab.rows[-1])):
        if a < 0:
            c = r * den + num * a if den else -1
            if c < 0:
                num, den, entering = r, -a, [(j, k)]
            elif c == 0:
                entering.append((j, k))
    return tuple(sorted(e for e in entering if e[0] is not None))


MODELS = {**GENERIC_CASES,
          "interval_reproducer_n5": PINNED_CASES["interval_reproducer_n5"],
          "redundant_envelope_a": PINNED_CASES["redundant_envelope_a"],
          "two_monotone_n4": PINNED_CASES["two_monotone_n4"]}
MODELS.update({f"pri_grid_n{n}_{s}": (lambda n=n, s=s: _grid_intervals(s, n))
               for n in (4, 5, 6) for s in (7101, 7102)})
MODELS.update({f"supermodular_n{n}_{s}": (lambda n=n, s=s: _supermodular(s, n))
               for n in (3, 4) for s in (7201, 7202)})
MODELS.update({f"facet_envelope_n{n}_{s}": (lambda n=n, s=s: _facet_envelope(s, n))
               for n in (3, 4) for s in (7301, 7302)})


@pytest.mark.parametrize("name", sorted(MODELS))
def test_negatives_only_ratio_test_matches_the_full_scan(monkeypatch, name):
    widths, cross = Counter(), fanwalk.neighbor_candidates

    def spy(tab, dropped, table):
        got = cross(tab, dropped, table)
        assert got == full_scan_candidates(tab, dropped, table)
        widths[len(got)] += 1
        return got

    monkeypatch.setattr(fanwalk, "neighbor_candidates", spy)
    walk(*MODELS[name]())
    assert widths
    if name == "interval_reproducer_n5":  # tied ratio tests: walls with two entering rows
        assert max(widths) > 1


def test_seed_target_is_drawn_once_per_dim():
    for dim in (1, 3, 6):
        assert _target(dim) == tuple(random.Random(0).sample(range(1, 9973), dim))
        assert _target(dim) is _target(dim)


def test_walk_builds_each_coordinate_once(monkeypatch):
    # every (numerator, denominator) pair is made a Fraction once by the
    # walk's crossings, and at most once more by its seed
    built, real = Counter(), fanwalk.Fraction
    monkeypatch.setattr(fanwalk, "Fraction", lambda *q: built.update([q]) or real(*q))
    g = walk(*MODELS["interval_reproducer_n5"]())
    assert max(built.values()) <= 2
    assert sum(built.values()) < sum(len(node.vertex) for node in g.nodes)
