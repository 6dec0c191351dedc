"""Summary statistics the benchmark reports: percentiles, tails, ratios."""

from __future__ import annotations

# percentiles tried for a tail, lowest first: the median and the decade
# tails; the report names the one used
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    values = sorted(float(v) for v in samples)
    if not values:
        raise ValueError("percentile of no samples")
    rank = (len(values) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def tail_percentile(samples, ladder=TAIL_LADDER,
                    min_beyond: int = MIN_BEYOND) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ``min_beyond`` samples
    beyond it, as ``(pct, value, n)``.

    With too few samples for any ladder entry the median stands in, and the
    returned ``pct`` of 50 together with ``n`` says so.
    """
    n = len(samples)
    chosen = ladder[0]
    for pct in ladder:
        # the tolerance keeps 100 samples' 10 beyond p90 from rounding to 9.99
        if n * (100.0 - pct) / 100.0 >= min_beyond - 1e-9:
            chosen = pct
    return chosen, percentile(samples, chosen), n


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, or 0 when the base is empty (nothing attempted,
    so nothing wasted); callers report the base beside the ratio."""
    return float(numerator) / float(base) if base else 0.0
