"""Exact statistics over raw samples.

The legacy harnesses read quantiles off power-of-two histogram buckets
(p50 "3.906 ms" in nearly every cell); everything here keeps the raw
samples and computes from them, so a quantile is exact for the sample
and its count can be printed next to it.
"""

from __future__ import annotations

import math
from typing import Iterable


def quantile(samples: Iterable[float], q: float) -> float:
    """The ``q``-quantile of ``samples``, linear between closest ranks.

    Same definition as ``numpy.quantile``'s default: the value at
    fractional rank ``q * (n - 1)`` of the sorted sample.  Empty input
    is an error: a latency metric with no samples must not read as 0.
    """
    data = sorted(samples)
    if not data:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    rank = q * (len(data) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(samples: Iterable[float]) -> float:
    return quantile(samples, 0.5)


def rel_diff(first: float, second: float) -> float:
    """``second`` relative to ``first`` (0.1 = 10% larger)."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    return (second - first) / abs(first)
