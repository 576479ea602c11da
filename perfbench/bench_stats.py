"""Order statistics and seed derivation for the benchmark.

Percentiles interpolate linearly between closest ranks (the same rule as
``numpy.percentile`` with its default method) and always travel with the
number of samples they were taken from, so a reader can tell a median of
three from a median of three hundred.
"""

from __future__ import annotations

import math

import numpy as np

# A tail percentile is only reported when at least this many samples lie
# beyond it; fewer would make it a statement about one or two outliers.
TAIL_SAMPLES = 10


def percentile(values, q):
    """Return ``(value, n)``: the ``q``-th percentile (0..100) and the sample count."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n


def median(values):
    return percentile(values, 50.0)[0]


def tail_percentile(n, tail=TAIL_SAMPLES):
    """Highest whole percentile of ``n`` samples with at least ``tail`` samples
    strictly beyond its rank position, or None when even the median has fewer."""
    for q in range(99, 49, -1):
        pos = (n - 1) * q / 100.0
        beyond = n - 1 - math.floor(pos)
        if beyond >= tail:
            return q
    return None


def derive_seeds(seed, count):
    """Split one benchmark seed into ``count`` independent integer seeds.

    The same ``seed`` always gives the same list; the streams of different
    seeds do not overlap in practice (numpy ``SeedSequence`` hashing).
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]
