"""Service-level objectives evaluated live against a metrics registry.

An :class:`SLO` binds an objective ("99.9% of operations succeed",
"99% of ``fs_op_seconds`` under 50ms") to the metric families that
measure it, and answers *right now, over the trailing window*: what is
the SLI, is it meeting the objective, and how fast is the error budget
burning. Burn rate is the standard multi-window alerting quantity —
``(1 - sli) / (1 - objective)`` — a burn rate of 1.0 spends exactly the
budget the objective allows, 10× means the budget is gone in a tenth of
the period. ``repro top`` renders one line per SLO from
:meth:`SLO.status`.

Two kinds:

* **availability** — good/bad from two counter families (``total`` and
  ``bad``, matched by name across every label set). The SLI is
  ``1 - bad/total`` over the window;
* **latency** — a histogram family plus a threshold; the SLI is the
  fraction of windowed observations at or under the threshold,
  computed over the histogram's ring of newest samples, the same
  observations the windowed percentiles are read from.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.metrics.registry import WINDOW_HORIZON, MetricsRegistry


class SLO:
    """One objective over one registry's metric families.

    Availability::

        SLO("op-success", objective=0.999,
            total="fs_ops_total", bad="fs_op_failures_total")

    Latency::

        SLO("op-latency", objective=0.99,
            latency="fs_op_seconds", threshold=0.050)
    """

    def __init__(self, name: str, objective: float, *,
                 total: Optional[str] = None,
                 bad: Optional[str] = None,
                 latency: Optional[str] = None,
                 threshold: Optional[float] = None,
                 window: float = 60.0) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        is_avail = total is not None and bad is not None
        is_latency = latency is not None and threshold is not None
        if is_avail == is_latency:
            raise ValueError("pass exactly one of (total=, bad=) or "
                             "(latency=, threshold=)")
        self.name = name
        self.objective = objective
        self.total = total
        self.bad = bad
        self.latency = latency
        self.threshold = threshold
        self.window = min(window, WINDOW_HORIZON)

    @property
    def kind(self) -> str:
        return "availability" if self.total is not None else "latency"

    def _availability_sli(self, registry: MetricsRegistry,
                          now: Optional[float]) -> tuple[Optional[float],
                                                         float]:
        total = bad = 0.0
        for c in registry.counters():
            if c.name == self.total:
                total += c.window(self.window, now=now)["count"]
            elif c.name == self.bad:
                bad += c.window(self.window, now=now)["count"]
        if total <= 0:
            return None, 0.0
        return 1.0 - bad / total, total

    def _latency_sli(self, registry: MetricsRegistry,
                     now: Optional[float]) -> tuple[Optional[float], float]:
        if now is None:
            now = time.time()
        cutoff = now - self.window
        good = events = 0
        for h in registry.histograms():
            if h.name != self.latency:
                continue
            for t, value in h.samples():
                if t > cutoff:
                    events += 1
                    if value <= self.threshold:
                        good += 1
        if not events:
            return None, 0.0
        return good / events, float(events)

    def status(self, registry: MetricsRegistry,
               now: Optional[float] = None) -> dict:
        """Evaluate against ``registry`` over the trailing window.

        Returns ``{"name", "kind", "objective", "window_seconds",
        "sli", "events", "burn_rate", "healthy"}``. With no traffic in
        the window, ``sli`` is ``None`` and the SLO counts as healthy
        (no evidence of violation — the convention alerting stacks
        use).
        """
        if self.kind == "availability":
            sli, events = self._availability_sli(registry, now)
        else:
            sli, events = self._latency_sli(registry, now)
        out = {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "window_seconds": self.window,
            "sli": sli,
            "events": events,
            "burn_rate": 0.0,
            "healthy": True,
        }
        if sli is not None:
            out["burn_rate"] = (1.0 - sli) / (1.0 - self.objective)
            out["healthy"] = sli >= self.objective
        return out
