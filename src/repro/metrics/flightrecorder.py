"""Failure flight recorder: always-on op ring + kept traces + JSON dumps.

Sampled tracing answers "what does a typical operation look like"; the
flight recorder answers "what happened *just before* things went wrong".
It keeps two bounded buffers per namenode:

* an **operation ring** of cheap begin/end records for *every* operation
  — op name, wall-clock start, duration, error class and (when the op was
  sampled) its ``trace_id`` — recorded even when tracing samples the op
  out;
* a **kept-trace ring** of full span trees for the interesting ops: the
  tracer's ``on_finish`` hook feeds it every failed, retried or
  slow-threshold-crossing trace.

``dump()`` serializes both to a JSON file. Dumps are triggered:

* automatically on a **transaction abort storm** — ``STORM_THRESHOLD``
  aborted-class failures (deadlock/lock-timeout/tx-abort/cluster-down)
  within the last ``STORM_WINDOW`` completed ops (only when a dump
  directory is configured via ``dump_dir`` or ``$REPRO_FLIGHT_DIR``;
  otherwise the storm is only counted, keeping tests side-effect free);
* by the pytest hooks in ``tests/conftest.py`` on test failure or a
  lock-witness finding, via :func:`dump_all`;
* manually from the CLI (``trace flight``).
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from collections import deque
from typing import Any, Optional

from repro.metrics.tracing import Trace

#: error classes that count toward an abort storm (transaction-level
#: failures; user errors like FileNotFound never trigger a dump)
ABORT_ERRORS = frozenset({
    "TransactionAbortedError", "DeadlockError", "LockTimeoutError",
    "ClusterDownError", "StaleSubtreeLockError",
})

DUMP_VERSION = 1

#: every live recorder, so test hooks can dump all of them on failure
_instances: "weakref.WeakSet[FlightRecorder]" = weakref.WeakSet()


class OpRecord:
    """One begin/end record in the operation ring."""

    __slots__ = ("op", "seq", "wall_start", "start", "end", "error",
                 "trace_id")

    def __init__(self, op: str, seq: int) -> None:
        self.op = op
        self.seq = seq
        self.wall_start = time.time()
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.error: Optional[str] = None
        self.trace_id: Optional[str] = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op, "seq": self.seq,
                "wall_start": self.wall_start,
                "duration": self.duration,
                "in_flight": self.end is None,
                "error": self.error, "trace_id": self.trace_id}


class FlightRecorder:
    """Bounded per-namenode recorder of recent operations and traces."""

    #: full span trees kept, newest last
    TRACE_KEEP = 64
    #: aborted-class failures within the window that make a storm
    STORM_THRESHOLD = 8
    #: completed ops the storm detector looks back over
    STORM_WINDOW = 64

    def __init__(self, name: str = "", ring_size: int = 512,
                 dump_dir: Optional[str] = None) -> None:
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.name = name
        self.dump_dir = dump_dir
        self._lock = threading.Lock()
        self._ops: deque[OpRecord] = deque(maxlen=ring_size)
        self._traces: deque[Trace] = deque(maxlen=self.TRACE_KEEP)
        self._recent_errors: deque[bool] = deque(maxlen=self.STORM_WINDOW)
        self._storm_active = False
        self._seq = 0
        self.storms = 0
        self.dumps_written = 0
        _instances.add(self)

    # -- recording -------------------------------------------------------------

    def begin(self, op: str) -> OpRecord:
        """Record an operation start (the record is already in the ring,
        so in-flight ops show up in dumps)."""
        with self._lock:
            self._seq += 1
            record = OpRecord(op, self._seq)
            self._ops.append(record)
        return record

    def end(self, record: OpRecord, error: Optional[BaseException] = None,
            trace_id: Optional[str] = None) -> None:
        record.end = time.perf_counter()
        record.trace_id = trace_id
        storm = False
        with self._lock:
            if error is not None:
                record.error = type(error).__name__
            aborted = record.error in ABORT_ERRORS
            self._recent_errors.append(aborted)
            if aborted:
                errors = sum(1 for e in self._recent_errors if e)
                if errors >= self.STORM_THRESHOLD and not self._storm_active:
                    self._storm_active = True
                    self.storms += 1
                    storm = True
            elif self._storm_active and not any(self._recent_errors):
                self._storm_active = False  # window healthy again; re-arm
        if storm:
            self._auto_dump("abort_storm")

    def note(self, op: str) -> OpRecord:
        """Record an instantaneous event (e.g. an injected fault) as a
        zero-duration op, without touching the abort-storm window."""
        with self._lock:
            self._seq += 1
            record = OpRecord(op, self._seq)
            record.end = record.start
            self._ops.append(record)
        return record

    def keep_trace(self, trace: Trace) -> None:
        """Keep a full span tree (failed/retried/slow ops; tracer hook)."""
        with self._lock:
            self._traces.append(trace)

    # -- inspection ------------------------------------------------------------

    def ops(self) -> list[OpRecord]:
        with self._lock:
            return list(self._ops)

    def traces(self) -> list[Trace]:
        with self._lock:
            return list(self._traces)

    def find_trace(self, trace_id: str) -> Optional[Trace]:
        with self._lock:
            candidates = list(self._traces)
        for trace in reversed(candidates):
            if trace.trace_id == trace_id:
                return trace
        return None

    # -- dumping ---------------------------------------------------------------

    def snapshot(self, reason: str = "") -> dict[str, Any]:
        """JSON-able dict of the full recorder state."""
        with self._lock:
            ops = list(self._ops)
            traces = list(self._traces)
        return {
            "version": DUMP_VERSION,
            "recorder": self.name,
            "reason": reason,
            "wall_time": time.time(),
            "storms": self.storms,
            "ops": [record.to_dict() for record in ops],
            "traces": [trace.to_dict() for trace in traces],
        }

    def dump(self, path: Optional[str] = None, reason: str = "") -> str:
        """Write the recorder state as JSON; returns the file path."""
        if path is None:
            directory = self._dump_directory() or "."
            os.makedirs(directory, exist_ok=True)
            label = self.name or "recorder"
            path = os.path.join(
                directory, f"flight-{label}-{os.getpid()}-{self._seq}.json")
        elif os.path.isdir(path):
            label = self.name or "recorder"
            path = os.path.join(
                path, f"flight-{label}-{os.getpid()}-{self._seq}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(reason), fh, indent=1)
        self.dumps_written += 1
        return path

    def _dump_directory(self) -> Optional[str]:
        return self.dump_dir or os.environ.get("REPRO_FLIGHT_DIR")

    def _auto_dump(self, reason: str) -> None:
        # only write files when the operator opted in via a dump dir;
        # otherwise the storm is counted and the data stays in memory
        if self._dump_directory() is None:
            return
        try:
            self.dump(reason=reason)
        except OSError:  # pragma: no cover - disk full/permission issues
            pass


def dump_all(directory: str, reason: str = "") -> list[str]:
    """Dump every live recorder that has recorded at least one op."""
    paths = []
    for recorder in list(_instances):
        if not recorder.ops():
            continue
        os.makedirs(directory, exist_ok=True)
        paths.append(recorder.dump(path=directory, reason=reason))
    return paths
