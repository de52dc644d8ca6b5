"""Exact order statistics over raw samples.

Every quantile the benchmark reports is computed here from the full
list of samples (linear interpolation between order statistics, the
same rule as ``numpy.quantile``'s default), never from a histogram
sketch, so a change to the program's own telemetry cannot move a
benchmark number.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its interpolation position.
MIN_TAIL = 10


def quantile(samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 <= q <= 1) of ``samples``."""
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    xs = sorted(samples)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def tail_count(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q`` quantile position."""
    if n == 0:
        return 0
    return n - 1 - math.floor((n - 1) * q)


def min_samples(q: float) -> int:
    """Fewest samples for which the ``q`` quantile may be reported."""
    n = 1
    while tail_count(n, q) < MIN_TAIL:
        n += 1
    return n


def reportable(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` quantile, or ``None`` when its tail is too thin."""
    if tail_count(len(samples), q) < MIN_TAIL:
        return None
    return quantile(samples, q)


#: Percentiles tried, highest first, by :func:`highest_percentile`.
LADDER = (0.999, 0.99, 0.95, 0.9, 0.5)


def highest_percentile(samples: Sequence[float]):
    """``(q, value)`` for the highest ladder percentile with a full tail."""
    for q in LADDER:
        value = reportable(samples, q)
        if value is not None:
            return q, value
    return None
