"""Percentiles by nearest rank, and the sample counts they need.

A timing is reported as its median and its p90; the p90 is only
trustworthy when at least ten samples lie beyond it, which fixes the
smallest sample count a timed run may stop at.
"""

from __future__ import annotations

import math

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # Rounding first keeps float products such as 0.29 * 100 from
    # ceiling one rank too high.
    return max(1, math.ceil(round(q * n, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    return n - _rank(n, q) if n else 0


def min_samples(q: float) -> int:
    """Smallest sample count that leaves :data:`MIN_BEYOND` above ``q``."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def median(values) -> float:
    """Nearest-rank median, so p50 and p90 share one definition."""
    return percentile(values, 0.5)
