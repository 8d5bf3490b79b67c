"""Order statistics used for the timing metrics."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank ``q`` quantile of ``samples``, refusing to report it
    unless at least ``min_beyond`` samples lie above its rank.

    With n samples the rank is ceil(q * n) (1-based), so n - rank samples
    are beyond it; p90 therefore needs at least 100 samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(samples)
    rank = _rank(q, len(ordered))
    if len(ordered) - rank < min_beyond:
        raise ValueError(
            f"{len(ordered)} samples leave {len(ordered) - rank} beyond the "
            f"{q:g} quantile; need {min_beyond}")
    return ordered[rank - 1]


def samples_needed(q, min_beyond=MIN_BEYOND):
    """Smallest sample count for which ``tail_percentile`` accepts ``q``."""
    n = min_beyond
    while n - _rank(q, n) < min_beyond:
        n += 1
    return n


def _rank(q, n):
    # the tolerance keeps q * n that should be whole (0.9 * 100) from
    # rounding up to the next rank
    return max(1, math.ceil(q * n - 1e-9))
