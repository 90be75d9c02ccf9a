"""Percentiles that state how much data they rest on."""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Percentiles the tail helper may report, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def _rank(count: int, pct: float) -> int:
    # Rounded first, so 99.9 % of 10000 is rank 9990, not 9991.
    return min(count, max(1, math.ceil(round(pct / 100.0 * count, 9))))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """Samples ranked above the nearest-rank *pct* percentile of *count*."""
    return count - _rank(count, pct)


def tail_percentile(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(pct, value, n)``.  With fewer than eleven samples no
    percentile qualifies and the maximum is reported as ``pct`` 100.
    """
    n = len(values)
    chosen = None
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= 10:
            chosen = pct
    if chosen is None:
        return 100.0, max(values), n
    return chosen, percentile(values, chosen), n


def supported(count: int, pct: float) -> bool:
    """True when *count* samples leave at least ten beyond *pct*."""
    return beyond(count, pct) >= 10


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
