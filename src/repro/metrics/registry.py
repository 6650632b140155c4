"""A thread-safe registry of named, labelled metrics.

Three metric families, mirroring the Prometheus data model but with no
external dependencies:

* :class:`CounterMetric` — monotonically increasing totals (operation
  counts, retries, database round trips);
* :class:`GaugeMetric` — point-in-time values (hint-cache size, hit
  rate, lock-table size);
* :class:`HistogramMetric` — latency/size distributions: exact
  count/sum/max, per-second counts, and one bounded ring of the newest
  :data:`RECENT_SAMPLES` timestamped observations that every percentile
  is read from, so memory stays flat over millions of observations.

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
histograms together (exact totals, the newest samples of both), which
is how :meth:`repro.hopsfs.cluster.HopsFSCluster.metrics_registry`
produces one cluster-wide view from the namenodes' registries and the
driver's.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Iterator, Optional

from repro.util.stats import percentile

#: label sets are stored canonically as sorted (key, value) tuples
LabelItems = tuple[tuple[str, str], ...]

#: sliding-window history horizon (seconds) — events older than this are
#: pruned; windows wider than the horizon silently clamp to it
WINDOW_HORIZON = 600.0

#: observations per histogram that percentiles are computed over: the
#: newest ones, as a Prometheus summary reports
RECENT_SAMPLES = 2048

#: a histogram's whole state, as :meth:`HistogramMetric.state` exports it:
#: ``(count, total, max, [(wall time, value), ...], {second: events})``
HistogramState = tuple[int, float, float, list[tuple[float, float]],
                       dict[int, float]]


def _label_items(labels: dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


# Per-second event buckets (``{second: events}``) for sliding-window
# rates. Seconds are *wall clock* (``time.time()``) so buckets from
# different processes merge meaningfully — the whole point of windowed
# snapshots is aggregating a ServerPool's view. A metric's buckets are
# guarded by that metric's ``_lock``.


def _prune_buckets(buckets: dict[int, float], sec: int) -> None:
    """Drop the buckets more than :data:`WINDOW_HORIZON` before ``sec``."""
    cutoff = sec - WINDOW_HORIZON
    for old in [s for s in buckets if s < cutoff]:
        del buckets[old]


def _merge_buckets(buckets: dict[int, float], parts: dict) -> None:
    for sec, n in parts.items():
        sec = int(sec)  # JSON round trips turn keys into strings
        buckets[sec] = buckets.get(sec, 0.0) + n


def _count_buckets(buckets: dict[int, float], seconds: float,
                   now: Optional[float]) -> float:
    if now is None:
        now = time.time()
    cutoff = now - min(seconds, WINDOW_HORIZON)
    return sum(n for sec, n in buckets.items() if sec > cutoff)


class CounterMetric:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "_value", "_buckets", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._buckets: dict[int, float] = {}
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge")
        sec = int(time.time())
        with self._lock:
            self._value += n
            buckets = self._buckets
            try:
                buckets[sec] += n
            except KeyError:  # the first event of this second
                buckets[sec] = float(n)
                if len(buckets) > WINDOW_HORIZON:
                    _prune_buckets(buckets, sec)

    def state(self) -> tuple[float, dict[int, float]]:
        """``(total, per-second buckets)``, read under one lock."""
        with self._lock:
            return self._value, dict(self._buckets)

    def fold(self, value: float, buckets: dict) -> None:
        """Add another counter's :meth:`state` *without* recording
        window traffic now.

        Merge and snapshot-restore paths use this:
        ``cluster.metrics_registry()`` re-merges per-namenode registries
        into a fresh one on every call, and folding those totals through
        :meth:`inc` would make old traffic look like a burst of activity
        *now*; the buckets keep their original timestamps.
        """
        with self._lock:
            self._value += value
            _merge_buckets(self._buckets, buckets)

    def window(self, seconds: float,
               now: Optional[float] = None) -> dict[str, float]:
        """Events and rate over the trailing ``seconds`` of wall clock."""
        with self._lock:
            count = _count_buckets(self._buckets, seconds, now)
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


def sample_percentiles(samples: list[tuple[float, float]],
                       ps: tuple[float, ...]) -> dict[float, float]:
    """Percentiles ``ps`` of the values of ``(wall time, value)`` samples
    (``nan`` each when there are none)."""
    ordered = sorted(v for _, v in samples)
    return {p: percentile(ordered, p) for p in ps}


class HistogramMetric:
    """A latency/size distribution.

    One store: exact ``count``/``total``/``max``, exact per-second
    counts, and a ring of the newest :data:`RECENT_SAMPLES`
    ``(wall time, value)`` observations. Every percentile comes from the
    ring — lifetime ones (:meth:`percentiles`, snapshots, Prometheus)
    over all of it, as a Prometheus summary reports the newest
    observations, and :meth:`window` ones ("p99 over the last 30
    seconds", the live view ``repro top`` and the SLO burn-rate math
    consume) over the part inside the window. ``count``/``rate`` stay
    exact from the buckets whatever the ring has dropped.

    The ring is two ``array("d")`` of C doubles, wall times and values,
    16 B a sample (≈ 32 KiB full, where a ring of tuples cost ≈ 195
    KiB). It grows by ``append`` until it holds :data:`RECENT_SAMPLES`;
    after that ``_next`` is the oldest slot, which the next observation
    overwrites. While it grows, ``_next`` is its length.
    """

    __slots__ = ("name", "labels", "_count", "_total", "_max", "_times",
                 "_values", "_next", "_buckets", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._times = array("d")
        self._values = array("d")
        self._next = 0
        self._buckets: dict[int, float] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        now = time.time()
        sec = int(now)
        with self._lock:
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value
            i = self._next
            if i == len(self._times):  # the ring is still growing
                self._times.append(now)
                self._values.append(value)
            else:
                self._times[i] = now
                self._values[i] = value
            i += 1
            self._next = i if i < RECENT_SAMPLES else 0
            buckets = self._buckets
            try:
                buckets[sec] += 1.0
            except KeyError:  # the first event of this second
                buckets[sec] = 1.0
                if len(buckets) > WINDOW_HORIZON:
                    _prune_buckets(buckets, sec)

    def _ring(self) -> list[tuple[float, float]]:
        """The ring's ``(wall time, value)`` samples, oldest first
        (``_lock`` held)."""
        i, times, values = self._next, self._times, self._values
        return list(zip(times[i:] + times[:i], values[i:] + values[:i]))

    def state(self) -> HistogramState:
        """The whole histogram, read under one lock acquisition."""
        with self._lock:
            return (self._count, self._total, self._max, self._ring(),
                    dict(self._buckets))

    def fold(self, count: int, total: float, max_value: float,
             samples: list[tuple[float, float]], buckets: dict) -> None:
        """Add another histogram's :meth:`state` (merging, and restoring
        a snapshot): totals add, buckets keep their timestamps, and the
        ring keeps the newest samples of both sides — the same ones
        whichever side folds into which."""
        with self._lock:
            self._count += count
            self._total += total
            if max_value > self._max:
                self._max = max_value
            if samples:
                merged = sorted([*self._ring(), *samples])[-RECENT_SAMPLES:]
                self._times = array("d", [t for t, _ in merged])
                self._values = array("d", [v for _, v in merged])
                # a partly filled ring grows from its end, a full one
                # overwrites slot 0, its oldest
                self._next = len(merged) % RECENT_SAMPLES
            _merge_buckets(self._buckets, buckets)

    def merge(self, other: "HistogramMetric") -> None:
        self.fold(*other.state())

    def samples(self) -> list[tuple[float, float]]:
        """The ring's ``(wall time, value)`` observations, oldest first."""
        with self._lock:
            return self._ring()

    def window(self, seconds: float,
               now: Optional[float] = None) -> dict[str, float]:
        """Windowed view: exact count/rate, percentiles from the ring.

        Returns ``{"count", "rate", "p50", "p99", "mean", "max"}`` over
        the trailing ``seconds`` (clamped to :data:`WINDOW_HORIZON`).
        """
        if now is None:
            now = time.time()
        cutoff = now - min(seconds, WINDOW_HORIZON)
        with self._lock:
            count = _count_buckets(self._buckets, seconds, now)
            values = sorted(v for t, v in zip(self._times, self._values)
                            if t > cutoff)
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
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    @property
    def mean(self) -> float:
        with self._lock:
            return self._total / self._count if self._count else float("nan")

    def percentile(self, p: float) -> float:
        return self.percentiles((p,))[p]

    def percentiles(self, ps: tuple[float, ...] = (50.0, 90.0, 99.0)
                    ) -> dict[float, float]:
        return sample_percentiles(self.samples(), ps)


class MetricsRegistry:
    """Thread-safe get-or-create home for every metric of one process.

    ``counter``/``gauge``/``histogram`` return the live metric object so
    hot paths can cache it; the convenience methods ``inc``/``set_gauge``/
    ``observe`` do a registry lookup per call and are meant for cold
    paths.
    """

    def __init__(self) -> None:
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
                metric = self._histograms[key] = HistogramMetric(*key)
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
        """Fold ``other`` into this registry (sums and sample unions).

        Counters and gauges add; gauges that are *rates* rather than
        levels (e.g. ``hint_cache_hit_rate``) should be recomputed by the
        aggregator from their underlying totals after merging. Counter
        and histogram state folds in (not through ``inc``/``observe``) so
        a re-merge never replays old traffic into the sliding windows;
        window buckets carry over with their original timestamps.
        """
        for counter in other.counters():
            self.counter(counter.name,
                         **dict(counter.labels)).fold(*counter.state())
        for gauge in other.gauges():
            self.gauge(gauge.name, **dict(gauge.labels)).inc(gauge.value)
        for histogram in other.histograms():
            self.histogram(histogram.name,
                           **dict(histogram.labels)).merge(histogram)
