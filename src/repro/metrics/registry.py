"""A thread-safe registry of named, labelled metrics.

Three metric families, mirroring the Prometheus data model but with no
external dependencies:

* :class:`CounterMetric` — monotonically increasing totals (operation
  counts, retries, database round trips);
* :class:`GaugeMetric` — point-in-time values (hint-cache size, hit
  rate, lock-table size);
* :class:`HistogramMetric` — latency distributions backed by the
  existing :class:`repro.util.stats.LatencyReservoir` sampler, so p50/p99
  stay cheap even for millions of observations.

Metrics are identified by ``(name, labels)``; labels are free-form
keyword arguments (``op="mkdir"``, ``table="inodes"``). Conventions used
across the tree are documented in ``docs/architecture.md`` §Observability:
counters end in ``_total``, durations are in seconds and end in
``_seconds``.

A registry belongs to the component that produces its metrics — one per
namenode (``NameNode.metrics``), one per engine (``NDBCluster.metrics``,
which an ndb-server serves as its own), one per remote driver
(``RemoteDriver.metrics``) — and that owner keeps the live handles of
whatever it records on a hot path; nothing finds a registry through a
thread-local. Registries are cheap to create and mergeable —
:meth:`MetricsRegistry.merge` sums counters and gauges and folds
histogram reservoirs together, which is how
:meth:`repro.hopsfs.cluster.HopsFSCluster.metrics_registry` produces one
cluster-wide view from the namenodes' registries and the driver's.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterator, Optional

from repro.util.stats import LatencyReservoir, percentile

#: label sets are stored canonically as sorted (key, value) tuples
LabelItems = tuple[tuple[str, str], ...]

#: sliding-window history horizon (seconds) — events older than this are
#: pruned; windows wider than the horizon silently clamp to it
WINDOW_HORIZON = 600.0

#: recent-sample memory per histogram for windowed percentiles
RECENT_SAMPLES = 2048


def _label_items(labels: dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _WindowBuckets:
    """Per-second event buckets for sliding-window rates.

    Timestamps are *wall clock* (``time.time()``) so buckets from
    different processes merge meaningfully — the whole point of windowed
    snapshots is aggregating a ServerPool's view. Not internally locked;
    the owning metric's lock guards every access (guarded_by: owner
    metric ``_lock``).
    """

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: dict[int, float] = {}

    def add(self, n: float, now: Optional[float] = None) -> None:
        sec = int(now if now is not None else time.time())
        buckets = self.buckets
        buckets[sec] = buckets.get(sec, 0.0) + n
        if len(buckets) > WINDOW_HORIZON:
            cutoff = sec - WINDOW_HORIZON
            for old in [s for s in buckets if s < cutoff]:
                del buckets[old]

    def merge(self, parts: dict) -> None:
        buckets = self.buckets
        for sec, n in parts.items():
            sec = int(sec)  # JSON round trips turn keys into strings
            buckets[sec] = buckets.get(sec, 0.0) + n

    def count(self, seconds: float, now: Optional[float] = None) -> float:
        if now is None:
            now = time.time()
        cutoff = now - min(seconds, WINDOW_HORIZON)
        return sum(n for sec, n in self.buckets.items() if sec > cutoff)

    def to_dict(self) -> dict[str, float]:
        return {str(sec): n for sec, n in self.buckets.items()}


class CounterMetric:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "_value", "_window", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._window = _WindowBuckets()
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += n
            self._window.add(n)

    def add_total(self, n: float) -> None:
        """Raise the total *without* recording window traffic.

        Merge/restore paths use this: ``cluster.metrics_registry()``
        re-merges per-namenode registries into a fresh one on every
        call, and folding those totals through :meth:`inc` would make
        old traffic look like a burst of activity *now*. Window state
        travels separately via :meth:`merge_window_parts`.
        """
        with self._lock:
            self._value += n

    def merge_window(self, other: "CounterMetric") -> None:
        with other._lock:
            parts = dict(other._window.buckets)
        with self._lock:
            self._window.merge(parts)

    def merge_window_parts(self, buckets: dict) -> None:
        """Fold exported per-second buckets in (snapshot restoring)."""
        with self._lock:
            self._window.merge(buckets)

    def window_buckets(self) -> dict[str, float]:
        """Exported per-second buckets (mergeable snapshot payload)."""
        with self._lock:
            return self._window.to_dict()

    def window(self, seconds: float,
               now: Optional[float] = None) -> dict[str, float]:
        """Events and rate over the trailing ``seconds`` of wall clock."""
        with self._lock:
            count = self._window.count(seconds, now=now)
        span = max(min(seconds, WINDOW_HORIZON), 1e-9)
        return {"count": count, "rate": count / span}

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeMetric:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramMetric:
    """A latency/size distribution (reservoir-sampled percentiles).

    Besides the lifetime reservoir, every histogram remembers its most
    recent timestamped observations (bounded deque) plus exact
    per-second counts, so :meth:`window` can answer "p99 over the last
    30 seconds" — the live view ``repro top`` and the SLO burn-rate
    math consume. When more than :data:`RECENT_SAMPLES` observations
    land inside the window, percentiles are computed over the newest
    ones (a sample), while ``count``/``rate`` stay exact from the
    buckets.
    """

    __slots__ = ("name", "labels", "_reservoir", "_recent", "_window",
                 "_lock")

    def __init__(self, name: str, labels: LabelItems,
                 capacity: int = 4096) -> None:
        self.name = name
        self.labels = labels
        self._reservoir = LatencyReservoir(capacity=capacity)
        self._recent: deque[tuple[float, float]] = deque(
            maxlen=RECENT_SAMPLES)
        self._window = _WindowBuckets()
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        now = time.time()
        with self._lock:
            self._reservoir.record(value)
            self._recent.append((now, value))
            self._window.add(1.0, now=now)

    def merge(self, other: "HistogramMetric") -> None:
        with other._lock:
            snapshot = other._reservoir
            count, total, mx = snapshot.count, snapshot.total, snapshot.max
            samples = list(snapshot._samples)
            recent = list(other._recent)
            buckets = dict(other._window.buckets)
        with self._lock:
            self._reservoir.merge_parts(count, total, mx, samples)
            self._merge_recent(recent)
            self._window.merge(buckets)

    def merge_parts(self, count: int, total: float, max_value: float,
                    samples: list[float]) -> None:
        """Fold externally-supplied reservoir state in (snapshot merging)."""
        with self._lock:
            self._reservoir.merge_parts(count, total, max_value, samples)

    def merge_window_parts(self, recent: list, buckets: dict) -> None:
        """Fold exported window state in (snapshot restoring)."""
        with self._lock:
            self._merge_recent([(float(t), float(v)) for t, v in recent])
            self._window.merge(buckets)

    def _merge_recent(self, recent: list[tuple[float, float]]) -> None:
        # keep the newest observations across both sides; the deque cap
        # bounds memory, so merge order must not silently drop the
        # *newer* side's samples  (guarded_by: _lock)
        if not recent:
            return
        merged = sorted(list(self._recent) + recent)
        self._recent.clear()
        self._recent.extend(merged[-RECENT_SAMPLES:])

    def sample_values(self) -> list[float]:
        """The raw reservoir samples (exported for mergeable snapshots)."""
        with self._lock:
            return list(self._reservoir._samples)

    def recent_samples(self) -> list[tuple[float, float]]:
        """Timestamped recent observations (mergeable snapshot payload)."""
        with self._lock:
            return list(self._recent)

    def window_buckets(self) -> dict[str, float]:
        """Exported per-second counts (mergeable snapshot payload)."""
        with self._lock:
            return self._window.to_dict()

    def window(self, seconds: float,
               now: Optional[float] = None) -> dict[str, float]:
        """Windowed view: exact count/rate, sampled percentiles.

        Returns ``{"count", "rate", "p50", "p99", "mean", "max"}`` over
        the trailing ``seconds`` (clamped to :data:`WINDOW_HORIZON`).
        """
        if now is None:
            now = time.time()
        cutoff = now - min(seconds, WINDOW_HORIZON)
        with self._lock:
            count = self._window.count(seconds, now=now)
            values = sorted(v for t, v in self._recent if t > cutoff)
        span = max(min(seconds, WINDOW_HORIZON), 1e-9)
        out = {"count": count, "rate": count / span,
               "p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
        if values:
            out["p50"] = percentile(values, 50.0)
            out["p99"] = percentile(values, 99.0)
            out["mean"] = sum(values) / len(values)
            out["max"] = values[-1]
        return out

    @property
    def count(self) -> int:
        with self._lock:
            return self._reservoir.count

    @property
    def total(self) -> float:
        with self._lock:
            return self._reservoir.total

    @property
    def max(self) -> float:
        with self._lock:
            return self._reservoir.max

    @property
    def mean(self) -> float:
        with self._lock:
            return self._reservoir.mean

    def percentile(self, p: float) -> float:
        with self._lock:
            return self._reservoir.percentile(p)

    def percentiles(self, ps: tuple[float, ...] = (50.0, 90.0, 99.0)
                    ) -> dict[float, float]:
        with self._lock:
            return self._reservoir.percentiles(list(ps))


class MetricsRegistry:
    """Thread-safe get-or-create home for every metric of one process.

    ``counter``/``gauge``/``histogram`` return the live metric object so
    hot paths can cache it; the convenience methods ``inc``/``set_gauge``/
    ``observe`` do a registry lookup per call and are meant for cold
    paths.
    """

    def __init__(self, histogram_capacity: int = 4096) -> None:
        self._histogram_capacity = histogram_capacity
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelItems], CounterMetric] = {}
        self._gauges: dict[tuple[str, LabelItems], GaugeMetric] = {}
        self._histograms: dict[tuple[str, LabelItems], HistogramMetric] = {}

    # -- get-or-create ---------------------------------------------------------

    def counter(self, name: str, **labels: object) -> CounterMetric:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = CounterMetric(*key)
            return metric

    def gauge(self, name: str, **labels: object) -> GaugeMetric:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = GaugeMetric(*key)
            return metric

    def histogram(self, name: str, **labels: object) -> HistogramMetric:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = HistogramMetric(
                    *key, capacity=self._histogram_capacity)
            return metric

    # -- convenience recording -------------------------------------------------

    def inc(self, name: str, n: float = 1.0, **labels: object) -> None:
        self.counter(name, **labels).inc(n)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.histogram(name, **labels).observe(value)

    # -- reads -----------------------------------------------------------------

    def get_counter(self, name: str, **labels: object) -> float:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._counters.get(key)
        return metric.value if metric is not None else 0.0

    def get_gauge(self, name: str, **labels: object) -> Optional[float]:
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._gauges.get(key)
        return metric.value if metric is not None else None

    def get_histogram(self, name: str, **labels: object
                      ) -> Optional[HistogramMetric]:
        key = (name, _label_items(labels))
        with self._lock:
            return self._histograms.get(key)

    def counters(self) -> Iterator[CounterMetric]:
        with self._lock:
            metrics = list(self._counters.values())
        return iter(metrics)

    def gauges(self) -> Iterator[GaugeMetric]:
        with self._lock:
            metrics = list(self._gauges.values())
        return iter(metrics)

    def histograms(self) -> Iterator[HistogramMetric]:
        with self._lock:
            metrics = list(self._histograms.values())
        return iter(metrics)

    def sum_counters(self, name: str) -> float:
        """Sum of one counter family across all label sets."""
        return sum(c.value for c in self.counters() if c.name == name)

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (sums and reservoir unions).

        Counters and gauges add; gauges that are *rates* rather than
        levels (e.g. ``hint_cache_hit_rate``) should be recomputed by the
        aggregator from their underlying totals after merging. Counter
        totals fold via :meth:`CounterMetric.add_total` (not ``inc``) so
        a re-merge never replays old traffic into the sliding windows;
        window buckets carry over with their original timestamps.
        """
        for counter in other.counters():
            mine = self.counter(counter.name, **dict(counter.labels))
            mine.add_total(counter.value)
            mine.merge_window(counter)
        for gauge in other.gauges():
            self.gauge(gauge.name, **dict(gauge.labels)).inc(gauge.value)
        for histogram in other.histograms():
            self.histogram(histogram.name,
                           **dict(histogram.labels)).merge(histogram)
