"""The metric catalogue, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the root of the checkout is the one place that
lists workloads (with why each exists), metric names, units, directions
and bounds. What each metric holds, and which end-to-end metric a layer
metric should move on which workload, is in the README next to this file.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import NamedTuple, Optional

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: what the driver's result line carries for a metric that could not be
#: measured here (every real value is >= 0 except trace.overhead_pct)
NOT_MEASURED = -1.0


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse
    #: (end-to-end metrics only)
    bound: Optional[float] = None


class Catalogue(NamedTuple):
    run_seconds: int
    #: workload name -> why it exists
    why: dict[str, str]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]

    @property
    def units(self) -> dict[str, str]:
        return {m.name: m.unit for m in self.end_to_end + self.per_layer}


@functools.cache
def catalogue() -> Catalogue:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return Catalogue(
        run_seconds=spec["run_seconds"],
        why={w["name"]: w["why"] for w in spec["workloads"]},
        end_to_end=tuple(Metric(**m) for m in spec["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in spec["per_layer"]))
