"""Order statistics used by the benchmark report.

Latency tails follow one rule: report the highest percentile of a fixed
ladder that still has at least ``TAIL_BEYOND`` samples above it, so a
tail value always rests on enough samples to mean something.
"""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, in increasing order.
TAIL_LADDER = (50.0, 60.0, 70.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)

# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def median(values) -> float:
    xs = list(values)
    if not xs:
        raise ValueError("median of no samples")
    return float(statistics.median(xs))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("p must lie in (0, 100]")
    rank = math.ceil(p / 100.0 * len(xs) - 1e-9)
    return float(xs[max(rank, 1) - 1])


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples beyond it.

    The nearest-rank p-th percentile of n samples sits at rank
    ceil(p n / 100), leaving n - rank samples above it.  None when even
    the median has fewer than TAIL_BEYOND samples beyond it.
    """
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n - 1e-9)
        if n - rank >= TAIL_BEYOND:
            best = p
    return best


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the latency tail; the maximum when samples are too few."""
    xs = list(values)
    p = tail_percentile(len(xs))
    if p is None:
        return float(max(xs)), 100.0
    return percentile(xs, p), p


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    xs = list(values)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / abs(median(xs))
