"""Result containers shared by the performance models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.util.stats import percentile


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    system: str
    duration: float
    scale: float
    clients: int = 0
    #: every recorded latency (seconds) by operation, so percentiles are
    #: exact
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: completions per simulated second (the failover timelines of Fig. 10)
    completions: dict[int, int] = field(default_factory=dict)

    def record(self, op: str, now: float, latency: float) -> None:
        """One operation ``op`` completed at simulated time ``now``."""
        self.latencies.setdefault(op, []).append(latency)
        second = int(now)
        self.completions[second] = self.completions.get(second, 0) + 1

    @property
    def operations(self) -> int:
        return sum(map(len, self.latencies.values()))

    @property
    def throughput(self) -> float:
        """Operations per second at the modelled (de-scaled) size."""
        if self.duration <= 0:
            return 0.0
        return self.operations / self.duration / self.scale

    @property
    def raw_throughput(self) -> float:
        return self.operations / self.duration if self.duration else 0.0

    def mean_latency(self) -> float:
        count = self.operations
        total = sum(map(sum, self.latencies.values()))
        return total / count if count else float("nan")

    def p99_latency(self, op: Optional[str] = None) -> float:
        values = (self.latencies[op] if op is not None
                  else [v for vs in self.latencies.values() for v in vs])
        return percentile(sorted(values), 99.0)
