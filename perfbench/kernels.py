"""The four fixed kernel cases of ``benchmarks/bench_backends.py``, reported
as per-layer numbers of every traced run (untraced, on the backend the
package selected at import).

Inputs are fixed, not seeded, so the numbers compare across runs and with
the backend-comparison script.
"""

from __future__ import annotations

import itertools
import random
import time

from credalfans import chains2mono, credal, exactla, polytope, pri


def _quadratic_lowprob(n, rng):
    w = [rng.randint(1, 5) for _ in range(n)]
    total = sum(w)
    table = []
    for size in range(1, n):
        for s in itertools.combinations(range(n), size):
            table.append((frozenset(s), exactla.rat(sum(w[i] for i in s)) ** 2 / exactla.rat(total) ** 2))
    return chains2mono.LowerProbability(credal.OutcomeSpace(tuple(f"x{i}" for i in range(n))), tuple(table))


def pri_enumerate_n10():
    """Full exchange walk of the 1260-cone interval model on ten outcomes."""
    space = credal.OutcomeSpace(tuple(f"x{i}" for i in range(10)))
    m = pri.PRIModel(space, (exactla.rat("1/11"),) * 10, (exactla.rat("1/9"),) * 10)
    t0 = time.perf_counter()
    points, graph = pri.enumerate_extreme_pri(m)
    elapsed = time.perf_counter() - t0
    assert len(points) == 1260 and len(graph.nodes) == 1260
    return elapsed


def oracle_vertices_n4_x20():
    """Brute-force vertex enumeration of a four-outcome credal set, 20 times."""
    h, _ = credal.build_credal_hrep(chains2mono.as_lower_prevision(_quadratic_lowprob(4, random.Random(7))))
    t0 = time.perf_counter()
    for _ in range(20):
        vs = polytope.vertices_bruteforce(h)
    elapsed = time.perf_counter() - t0
    assert vs
    return elapsed


def rank_8x8_x60():
    """Fraction-free elimination on 60 random dense 8x8 rational matrices."""
    rng = random.Random(11)
    mats = [[tuple(exactla.rat(rng.randint(-30, 30)) / rng.randint(1, 9) for _ in range(8))
             for _ in range(8)] for _ in range(60)]
    t0 = time.perf_counter()
    total = sum(exactla.rank(m) for m in mats)
    elapsed = time.perf_counter() - t0
    assert total > 0
    return elapsed


def choquet_n8_x400():
    """Choquet integrals of 400 gambles against an eight-outcome table."""
    rng = random.Random(13)
    lowprob = _quadratic_lowprob(8, rng)
    gambles = [tuple(exactla.rat(rng.randint(-36, 72)) / 12 for _ in range(8)) for _ in range(400)]
    t0 = time.perf_counter()
    acc = sum(chains2mono.choquet(lowprob, g) for g in gambles)
    elapsed = time.perf_counter() - t0
    assert acc is not None
    return elapsed


CASES = (pri_enumerate_n10, oracle_vertices_n4_x20, rank_8x8_x60, choquet_n8_x400)
