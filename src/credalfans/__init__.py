"""Exact normal-fan machinery for finitely generated credal sets.

Computes extreme points, simplicial normal cones, and adjacency structure of
credal sets given by finitely many lower-prevision assessments, with
structured fast paths for 2-monotone lower probabilities and probability
intervals, everything in exact rational arithmetic.
"""

# The one rational type, recorded by the benchmark harness in its results.
BACKEND = "fraction"

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]
