"""Order statistics shared by the benchmark and the comparison tool."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: percentiles a timing's tail may be reported at, lowest first
TAIL_LADDER: Tuple[int, ...] = (50, 75, 90, 95, 99)
#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (one value gives itself three times)."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values: Sequence[float], p: int) -> float:
    """Linear-interpolated percentile, ``p`` a whole number in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest ladder percentile with at least
    :data:`TAIL_MIN_BEYOND` of the samples beyond it, and its value.

    Forty samples give p75 (ten beyond), twenty give p50, and fewer than
    twenty give ``None``: no percentile has ten samples beyond it.
    """
    best = None
    for p in TAIL_LADDER:
        beyond = len(values) * (100 - p) / 100.0
        if beyond + 1e-9 >= TAIL_MIN_BEYOND:
            best = (p, percentile(values, p))
    return best
