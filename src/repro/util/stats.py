"""Statistics helpers used by both the functional layer and the simulator.

These are deliberately dependency-light (plain Python + math) so they can be
used in hot paths; numpy is only used where it clearly wins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


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


class LatencyReservoir:
    """Reservoir sampler for latency observations.

    Keeps at most ``capacity`` samples, uniformly sampled over the stream
    (Algorithm R), plus exact count/mean/max so headline numbers are exact
    even when percentiles are approximate.
    """

    def __init__(self, capacity: int = 20000, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._rng = random.Random(seed)
        # bound method: ``Random.random`` is a single C call, an order of
        # magnitude cheaper than pure-Python ``randrange`` — and record()
        # runs once per histogram observation on hot paths
        self._random = self._rng.random
        self._samples: list[float] = []
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:
            # Algorithm R eviction; int(U * count) is uniform on
            # [0, count) just like randrange(count)
            j = int(self._random() * self.count)
            if j < self._capacity:
                self._samples[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, p: float) -> float:
        return percentile(sorted(self._samples), p)

    def percentiles(self, ps: list[float]) -> dict[float, float]:
        ordered = sorted(self._samples)
        return {p: percentile(ordered, p) for p in ps}

    def merge_parts(self, count: int, total: float, max_value: float,
                    samples: list[float]) -> None:
        """Fold another reservoir's state into this one.

        Count/total/max stay exact; the sample pool is the union,
        down-sampled uniformly back to capacity, so merged percentiles
        remain an unbiased approximation. Used when aggregating
        per-namenode metric registries into one cluster view.
        """
        self.count += count
        self.total += total
        if max_value > self.max:
            self.max = max_value
        pool = self._samples + list(samples)
        if len(pool) > self._capacity:
            pool = self._rng.sample(pool, self._capacity)
        self._samples = pool

    def merge(self, other: "LatencyReservoir") -> None:
        self.merge_parts(other.count, other.total, other.max,
                         other._samples)


@dataclass
class ThroughputWindow:
    """Counts events into fixed-width time buckets.

    Used to build throughput-over-time series (e.g. the failover plot,
    Figure 10) from completion events.
    """

    width: float = 1.0
    _buckets: dict[int, int] = field(default_factory=dict)

    def record(self, t: float, n: int = 1) -> None:
        idx = int(t // self.width)
        self._buckets[idx] = self._buckets.get(idx, 0) + n

    def series(self, end_time: float | None = None
               ) -> list[tuple[float, float]]:
        """Return ``(bucket_start_time, events_per_second)`` pairs, sorted.

        Contract: an empty window always yields ``[]``, regardless of
        ``end_time``. With ``end_time`` set, zero-count buckets between
        the first recorded bucket and ``end_time`` are filled in, so
        plots show gaps (e.g. the failover dip of Figure 10) instead of
        skipping them.
        """
        if not self._buckets:
            return []
        if end_time is None:
            return [
                (idx * self.width, count / self.width)
                for idx, count in sorted(self._buckets.items())
            ]
        first = min(self._buckets)
        last = max(int(end_time // self.width), max(self._buckets))
        return [
            (idx * self.width, self._buckets.get(idx, 0) / self.width)
            for idx in range(first, last + 1)
        ]

    def rate_at(self, t: float) -> float:
        return self._buckets.get(int(t // self.width), 0) / self.width
