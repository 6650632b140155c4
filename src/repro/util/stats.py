"""The percentile helper shared by the metrics registry and the simulator's
results (plain Python + math, so hot paths can use it)."""

from __future__ import annotations

import math


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolation percentile of an already *sorted* list.

    ``p`` is in [0, 100]. Returns ``nan`` for an empty list.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return sorted_values[lo]
    frac = rank - lo
    # lo + (hi-lo)*frac is exact when both endpoints are equal and stays
    # within [lo, hi] — the a*(1-f)+b*f form can fall below min(a, b)
    # through floating-point rounding
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac
