"""Timeline export: traces → Chrome ``trace_event`` / Perfetto JSON.

The output is the JSON Object Format of the Trace Event spec (a
``traceEvents`` array wrapped in an object), which both ``chrome://tracing``
and https://ui.perfetto.dev load directly:

* every span becomes a complete (``"ph": "X"``) event with microsecond
  ``ts``/``dur``;
* zero-duration trace events (``db.*`` round trips, ``tx_retry``, …)
  become instants (``"ph": "i"``);
* each trace is one *process* lane (``pid``), named after the operation
  and trace id via ``process_name`` metadata, so cross-trace timelines
  (a flight-recorder dump, a ring export) stay visually separated;
* spans keep their recording thread: the span's ``tid`` (OS thread
  ident) is mapped to a small per-trace lane number, and worker-thread
  spans from the shard executor or the subtree pools show up in their
  own rows under the same operation;
* spans a remote server shipped back over the wire — grafted under an
  ``rpc.server`` span carrying ``pid``/``server`` labels by
  :func:`repro.metrics.tracing.graft_remote_call` — move to their own
  chrome process, one per *real* server process, named ``server ndb0
  [pid 1234]``. A distributed trace thus renders the way it ran: the
  client process on top, every ndb-server process below it, with the
  grafted spans already clock-aligned into the client timeline.

Accepts live :class:`~repro.metrics.tracing.Trace` objects or their
``to_dict()`` form, so flight-recorder dump files re-export unchanged.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Union

from repro.metrics.tracing import Trace

TraceLike = Union[Trace, dict]


def _as_dict(trace: TraceLike) -> dict[str, Any]:
    return trace.to_dict() if isinstance(trace, Trace) else trace


class _ProcessMap:
    """Chrome-pid allocation across one export.

    Client traces claim pids 0..n-1; every distinct remote server
    process (identified by the ``pid``/``server`` labels on an
    ``rpc.server`` span) gets one chrome pid above those — shared by
    every trace that touched it, so the timeline shows one row per
    *real* process, exactly like a distributed-tracing UI.
    """

    def __init__(self, next_pid: int) -> None:
        self._next = next_pid
        self.remote: dict[tuple[str, str], int] = {}
        #: os-thread-ident → small lane number, per chrome pid
        self.lanes: dict[int, dict[int, int]] = {}

    def remote_pid(self, os_pid: str, server: str) -> int:
        key = (os_pid, server)
        pid = self.remote.get(key)
        if pid is None:
            pid = self.remote[key] = self._next
            self._next += 1
        return pid

    def lane(self, pid: int, os_tid: int) -> int:
        lanes = self.lanes.setdefault(pid, {})
        return lanes.setdefault(os_tid, len(lanes))


def _span_events(span: dict[str, Any], pid: int, procs: _ProcessMap,
                 out: list[dict[str, Any]]) -> None:
    labels = span.get("labels", {})
    if span.get("name") == "rpc.server" and "pid" in labels:
        # the graft marker: this span and its subtree ran in a remote
        # server process — hand them their own chrome process row
        pid = procs.remote_pid(str(labels["pid"]),
                               str(labels.get("server", "")))
    tid = procs.lane(pid, span.get("tid", 0))
    start = span.get("start", 0.0)
    end = span.get("end")
    event: dict[str, Any] = {
        "name": span.get("name", "?"),
        "pid": pid,
        "tid": tid,
        "ts": round(start * 1e6, 3),
        "args": dict(labels),
    }
    if end is not None and end == start:
        event["ph"] = "i"
        event["s"] = "t"  # instant scoped to its thread lane
        event["cat"] = "event"
    else:
        event["ph"] = "X"
        event["dur"] = round(((end or start) - start) * 1e6, 3)
        event["cat"] = "span"
    out.append(event)
    for child in span.get("children", ()):
        _span_events(child, pid, procs, out)


def to_chrome(traces: Iterable[TraceLike],
              meta: Union[dict[str, Any], None] = None) -> dict[str, Any]:
    """Build the Chrome trace_event JSON object for ``traces``."""
    events: list[dict[str, Any]] = []
    trace_dicts = [_as_dict(trace) for trace in traces]
    procs = _ProcessMap(next_pid=len(trace_dicts))
    for pid, trace in enumerate(trace_dicts):
        _span_events(trace["root"], pid, procs, events)
        title = trace.get("op", "?")
        trace_id = trace.get("trace_id", "?")
        if trace.get("parent_id"):
            title += f" ⤷{trace['parent_id']}"
        if trace.get("error"):
            title += f" !{trace['error']}"
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "ts": 0,
                       "args": {"name": f"{title} [{trace_id}]"}})
    for (os_pid, server), pid in sorted(procs.remote.items(),
                                        key=lambda kv: kv[1]):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "ts": 0,
                       "args": {"name": f"server {server} [pid {os_pid}]"}})
    for pid, lanes in sorted(procs.lanes.items()):
        for os_tid, lane in sorted(lanes.items(), key=lambda kv: kv[1]):
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": lane, "ts": 0,
                           "args": {"name": f"thread-{os_tid}"}})
    document: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if meta:
        document["otherData"] = dict(meta)
    return document


def write_chrome(traces: Iterable[TraceLike], path: str,
                 meta: Union[dict[str, Any], None] = None) -> str:
    """Write :func:`to_chrome` output to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome(traces, meta), fh)
    return path
