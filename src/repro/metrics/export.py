"""Exporters: JSON snapshots, Prometheus text exposition, summary tables.

One registry, three views:

* :func:`snapshot` / :func:`to_json` / :func:`from_json` — a structured,
  machine-readable dict (what ``--metrics-json`` writes next to benchmark
  results); the JSON round trip is lossless for counters/gauges and keeps
  histogram headline stats (count/sum/max/mean + percentiles), and a
  sample-carrying snapshot is lossless for histograms too;
* :func:`prometheus_text` — the Prometheus text exposition format
  (histograms become summaries with ``quantile`` labels), so a real
  scraper could be pointed at a deployment with no code changes;
* :func:`summary` — a human-readable table for the CLI ``metrics``
  command.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.metrics.registry import MetricsRegistry, sample_percentiles

#: 2: a histogram ships one ``samples: [[t, v], ...]`` list
SNAPSHOT_VERSION = 2

#: percentiles exported for every histogram
PERCENTILES = (50.0, 90.0, 99.0)


def _nan_safe(value: float) -> Optional[float]:
    return None if value != value else value  # NaN -> null in JSON


def _str_keys(buckets: dict[int, float]) -> dict[str, float]:
    return {str(sec): n for sec, n in buckets.items()}  # JSON object keys


def snapshot(registry: MetricsRegistry, meta: Optional[dict] = None,
             include_samples: bool = False) -> dict:
    """Structured snapshot of every metric in ``registry``.

    Histogram percentiles are those of the newest
    :data:`~repro.metrics.registry.RECENT_SAMPLES` observations, as a
    Prometheus summary reports. With ``include_samples`` each histogram
    additionally carries those observations as ``samples: [[t, v], ...]``
    and every counter and histogram its per-second ``buckets``, which
    makes the snapshot *mergeable*: percentiles of a merged snapshot are
    recomputed from the pooled samples instead of being averaged (see
    :func:`merge_snapshots`), and windowed views (:func:`windows`,
    ``repro top``) survive the snapshot → registry round trip and merge
    across processes (samples and buckets are wall-clock stamped).
    Server processes emit sample-carrying snapshots on exit for exactly
    this reason.
    """
    counters = []
    for c in registry.counters():
        value, buckets = c.state()
        entry = {"name": c.name, "labels": dict(c.labels), "value": value}
        if include_samples and buckets:
            entry["buckets"] = _str_keys(buckets)
        counters.append(entry)
    gauges = [
        {"name": g.name, "labels": dict(g.labels), "value": g.value}
        for g in registry.gauges()
    ]
    histograms = []
    for h in registry.histograms():
        count, total, max_value, samples, buckets = h.state()
        ps = sample_percentiles(samples, PERCENTILES)
        entry = {
            "name": h.name,
            "labels": dict(h.labels),
            "count": count,
            "sum": total,
            "max": max_value,
            "mean": total / count if count else None,
            "percentiles": {f"p{int(p)}": _nan_safe(v)
                            for p, v in ps.items()},
        }
        if include_samples:
            entry["samples"] = [[t, v] for t, v in samples]
            if buckets:
                entry["buckets"] = _str_keys(buckets)
        histograms.append(entry)
    key = lambda m: (m["name"], sorted(m["labels"].items()))  # noqa: E731
    result = {
        "version": SNAPSHOT_VERSION,
        "counters": sorted(counters, key=key),
        "gauges": sorted(gauges, key=key),
        "histograms": sorted(histograms, key=key),
    }
    if meta:
        result["meta"] = dict(meta)
    return result


def to_json(registry: MetricsRegistry, meta: Optional[dict] = None,
            indent: int = 2, include_samples: bool = False) -> str:
    return json.dumps(snapshot(registry, meta=meta,
                               include_samples=include_samples),
                      indent=indent, sort_keys=True)


def from_json(text: str) -> dict:
    """Parse a snapshot produced by :func:`to_json` (version checked)."""
    data = json.loads(text)
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported metrics snapshot version {version!r}")
    return data


def snapshot_counters(data: dict) -> dict[tuple, float]:
    """Flatten a parsed snapshot's counters to ``{(name, labels): value}``."""
    return {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in data["counters"]
    }


def registry_from_snapshot(data: dict) -> MetricsRegistry:
    """Rebuild a registry from a parsed snapshot.

    Counters and gauges round-trip exactly. Histograms rebuild their
    exact count/sum/max, and from a sample-carrying snapshot (the
    mergeable kind) their samples and buckets too, so percentiles and
    windows come back exactly; a sample-less snapshot yields empty
    percentiles. State folds in the way :meth:`MetricsRegistry.merge`
    folds it, so rebuilding never replays old traffic as new.
    """
    registry = MetricsRegistry()
    for c in data.get("counters", ()):
        registry.counter(c["name"], **c["labels"]).fold(
            c["value"], c.get("buckets", {}))
    for g in data.get("gauges", ()):
        registry.gauge(g["name"], **g["labels"]).set(g["value"])
    for h in data.get("histograms", ()):
        registry.histogram(h["name"], **h["labels"]).fold(
            h["count"], h["sum"], h["max"],
            [(t, v) for t, v in h.get("samples", ())],  # JSON made lists
            h.get("buckets", {}))
    return registry


def merge_snapshots(snapshots: list[dict],
                    meta: Optional[dict] = None,
                    include_samples: bool = True) -> dict:
    """Merge many snapshots (one per process) into one cluster-wide view.

    Counters and gauges sum; histograms pool their samples so the merged
    percentiles are recomputed over the newest of the union, exactly as
    :meth:`MetricsRegistry.merge` does for in-process registries. Each
    input's ``meta`` is preserved under ``meta.sources``.
    """
    merged = MetricsRegistry()
    sources = []
    for data in snapshots:
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported metrics snapshot version {version!r}")
        merged.merge(registry_from_snapshot(data))
        if data.get("meta"):
            sources.append(dict(data["meta"]))
    out_meta = dict(meta or {})
    out_meta["merged_from"] = len(snapshots)
    if sources:
        out_meta["sources"] = sources
    return snapshot(merged, meta=out_meta, include_samples=include_samples)


def windows(registry: MetricsRegistry, seconds: float = 60.0,
            now: Optional[float] = None) -> dict:
    """Windowed view of every metric with recent traffic.

    Returns ``{"window_seconds": N, "counters": [...], "histograms":
    [...]}`` where each entry carries the metric identity plus its
    :meth:`~repro.metrics.registry.HistogramMetric.window` dict (rate
    and p50/p99 for histograms, count and rate for counters). Metrics
    with zero traffic inside the window are omitted — this is the live
    feed, not the inventory. The ``/metrics.json?window=N`` endpoint
    and ``repro top`` are both thin wrappers over this.
    """
    counters = []
    for c in registry.counters():
        view = c.window(seconds, now=now)
        if view["count"]:
            counters.append({"name": c.name, "labels": dict(c.labels),
                             **view})
    histograms = []
    for h in registry.histograms():
        view = h.window(seconds, now=now)
        if view["count"]:
            histograms.append({"name": h.name, "labels": dict(h.labels),
                               **view})
    key = lambda m: (m["name"], sorted(m["labels"].items()))  # noqa: E731
    return {
        "window_seconds": seconds,
        "counters": sorted(counters, key=key),
        "histograms": sorted(histograms, key=key),
    }


# -- Prometheus text exposition ------------------------------------------------


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _label_str(labels, extra: Optional[dict[str, str]] = None) -> str:
    items = list(labels) + (sorted(extra.items()) if extra else [])
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in items)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value != value:
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry,
                    namespace: str = "repro") -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    prefix = f"{namespace}_" if namespace else ""

    by_name: dict[str, list] = {}
    for c in registry.counters():
        by_name.setdefault(c.name, []).append(c)
    for name in sorted(by_name):
        lines.append(f"# TYPE {prefix}{name} counter")
        for c in sorted(by_name[name], key=lambda m: m.labels):
            lines.append(f"{prefix}{name}{_label_str(c.labels)} "
                         f"{_fmt(c.value)}")

    by_name = {}
    for g in registry.gauges():
        by_name.setdefault(g.name, []).append(g)
    for name in sorted(by_name):
        lines.append(f"# TYPE {prefix}{name} gauge")
        for g in sorted(by_name[name], key=lambda m: m.labels):
            lines.append(f"{prefix}{name}{_label_str(g.labels)} "
                         f"{_fmt(g.value)}")

    by_name = {}
    for h in registry.histograms():
        by_name.setdefault(h.name, []).append(h)
    for name in sorted(by_name):
        lines.append(f"# TYPE {prefix}{name} summary")
        for h in sorted(by_name[name], key=lambda m: m.labels):
            count, total, _max, samples, _buckets = h.state()
            for p, value in sample_percentiles(samples, PERCENTILES).items():
                quantile = {"quantile": f"{p / 100.0:g}"}
                lines.append(
                    f"{prefix}{name}{_label_str(h.labels, quantile)} "
                    f"{_fmt(value)}")
            lines.append(f"{prefix}{name}_sum{_label_str(h.labels)} "
                         f"{_fmt(total)}")
            lines.append(f"{prefix}{name}_count{_label_str(h.labels)} "
                         f"{_fmt(count)}")
    return "\n".join(lines) + "\n"


# -- human-readable summary ----------------------------------------------------


def _table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
              for i in range(len(headers))]

    def render(cells) -> str:
        return "  ".join(str(c).ljust(w)
                         for c, w in zip(cells, widths, strict=True))

    lines = [title, render(headers), "-" * (sum(widths) + 2 * len(widths))]
    lines += [render(r) for r in rows]
    return "\n".join(lines)


def _label_suffix(labels) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def summary(registry: MetricsRegistry) -> str:
    """Render every metric as aligned tables (CLI ``metrics`` command)."""
    sections = []
    hist_rows = []
    for h in sorted(registry.histograms(),
                    key=lambda m: (m.name, m.labels)):
        count, total, max_value, samples, _buckets = h.state()
        ps = sample_percentiles(samples, PERCENTILES)
        hist_rows.append([
            f"{h.name}{_label_suffix(h.labels)}", str(count),
            f"{total / count * 1e3:.3f}" if count else "-",
            f"{ps[50.0] * 1e3:.3f}" if count else "-",
            f"{ps[90.0] * 1e3:.3f}" if count else "-",
            f"{ps[99.0] * 1e3:.3f}" if count else "-",
            f"{max_value * 1e3:.3f}" if count else "-",
        ])
    if hist_rows:
        sections.append(_table(
            "latency (milliseconds)",
            ["histogram", "count", "mean", "p50", "p90", "p99", "max"],
            hist_rows))
    counter_rows = [
        [f"{c.name}{_label_suffix(c.labels)}", _fmt(c.value)]
        for c in sorted(registry.counters(), key=lambda m: (m.name, m.labels))
        if c.value
    ]
    if counter_rows:
        sections.append(_table("counters", ["counter", "value"],
                               counter_rows))
    gauge_rows = [
        [f"{g.name}{_label_suffix(g.labels)}", f"{g.value:g}"]
        for g in sorted(registry.gauges(), key=lambda m: (m.name, m.labels))
    ]
    if gauge_rows:
        sections.append(_table("gauges", ["gauge", "value"], gauge_rows))
    return "\n\n".join(sections) if sections else "(no metrics recorded)"
