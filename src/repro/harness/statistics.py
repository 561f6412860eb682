"""Confidence intervals for Monte-Carlo fault-injection estimates.

Campaign outcome rates carry intervals, not bare point estimates. The
Wilson score interval stays well-behaved at the small counts rare-event
estimates produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Two-sided 95% normal quantile: ``scipy.stats.norm.ppf(0.975)``, bit
#: for bit. ``statistics.NormalDist().inv_cdf(0.975)`` is two ulp lower,
#: which would change the last digit of every reported interval.
z = 1.959963984540054


@dataclass(frozen=True)
class Interval:
    """A point estimate with its 95% confidence interval."""

    estimate: float
    low: float
    high: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low


def wilson_interval(successes: int, trials: int) -> Interval:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p * (1 - p) / trials + z * z / (4 * trials * trials))
    low = max(0.0, centre - margin)
    high = min(1.0, centre + margin)
    # snap the degenerate edges exactly (floating-point residue would
    # otherwise leave low=1e-18 at 0 successes, or high<p at all-successes)
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    low = min(low, p)
    high = max(high, p)
    return Interval(estimate=p, low=low, high=high)
