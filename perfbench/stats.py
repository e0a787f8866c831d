"""Order statistics used by the end-to-end metrics."""

from __future__ import annotations

import math
import statistics

# Percentiles op_tail_s may report, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(sorted_values, pct: float) -> float:
    """The nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return sorted_values[min(rank, n) - 1]


def tail(values) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  With fewer than
    twenty samples no ladder percentile qualifies, and the slowest sample
    is reported as percentile 100 with nothing beyond it.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_LADDER:
        beyond = n - math.ceil(pct / 100.0 * n - 1e-9)
        if beyond >= MIN_BEYOND:
            best = (nearest_rank(ordered, pct), pct, beyond)
    return best if best is not None else (ordered[-1], 100.0, 0)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf
