"""Unified observability: metrics registry, per-operation tracing, exporters.

The subsystem is dependency-light (stdlib plus
:func:`repro.util.stats.percentile`) and safe to leave on in hot paths:
untraced code pays one thread-local read per instrumentation point, and
tracing itself can be sampled (``HopsFSConfig.trace_sample_every``). A
histogram keeps exact totals, per-second counts and one ring of its
newest observations (:class:`~repro.metrics.registry.HistogramMetric`).

Typical use::

    fs = HopsFSCluster(...)
    ... run a workload ...
    print(export.summary(fs.metrics_registry()))      # human table
    text = fs.metrics_prometheus()                    # scrape endpoint body
    data = fs.metrics_snapshot()                      # JSON-able dict
"""

from repro.metrics.export import (
    from_json,
    prometheus_text,
    snapshot,
    summary,
    to_json,
    windows,
)
from repro.metrics.flightrecorder import FlightRecorder
from repro.metrics.registry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from repro.metrics.slo import SLO
from repro.metrics.traceexport import to_chrome, write_chrome
from repro.metrics.tracing import (
    Span,
    Trace,
    TraceContext,
    Tracer,
    add_event,
    current_trace,
    graft_remote_call,
    link_scope,
    span,
    span_from_dict,
)

__all__ = [
    "SLO",
    "CounterMetric",
    "FlightRecorder",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "Span",
    "Trace",
    "TraceContext",
    "Tracer",
    "add_event",
    "current_trace",
    "from_json",
    "graft_remote_call",
    "link_scope",
    "prometheus_text",
    "snapshot",
    "span",
    "span_from_dict",
    "summary",
    "to_chrome",
    "to_json",
    "windows",
    "write_chrome",
]
