"""Per-operation tracing: nested spans over the transaction template.

Every file system operation run through
:meth:`repro.hopsfs.namenode.NameNode._fs_op` opens a *trace* — a tree of
:class:`Span`s following the paper's Figure 4 phases:

* ``execute`` — one transaction attempt (the operation body);
* ``resolve`` — path resolution (batched or recursive), a child of
  ``execute``;
* ``lock`` — the strongest-lock re-reads of the last/parent components;
* ``lock_wait`` — time blocked in the NDB lock manager's wait queue;
* ``commit`` — the 2PC flush of buffered writes.

Layers below the namenode never hold a tracer reference: they call the
module-level :func:`span` / :func:`add_event` helpers, which attach to
the trace bound to the current thread (and degrade to no-ops costing one
thread-local read when tracing is off, sampled out, or the caller runs
outside an operation). Zero-duration *events* mark points of interest —
each database round trip (``db.pk``, ``db.batched_pk``, …, carrying the
``shard``/``node_group`` that served it), transaction retries,
stale-subtree-lock reclamations.

Tracing v2 makes the binding *propagable* across threads: every trace
carries a process-unique ``trace_id``, the live span stack lives in the
thread-local binding (not on the :class:`Trace`), and
:class:`TraceContext` snapshots the binding at executor-submit time so
shard fan-out, group-commit flushes, and subtree-op worker transactions
re-bind it on their worker thread and parent correctly under the
submitting span. Multi-transaction operations (the subtree protocol)
wrap their phases in :func:`link_scope` so every inner trace records a
``parent_id`` pointing at the operation's root trace.

The :class:`Tracer` keeps a bounded ring of recent traces plus a
slow-operation log (traces above ``slow_threshold`` seconds) and, when
given a registry, folds every finished trace's per-phase durations into
``hopsfs_phase_seconds{phase,op}`` histograms. ``sample_every=N`` traces
every Nth call *per operation name* (round-robin within each op, so rare
ops like ``set_quota`` are not starved by hot ones; 1 = all, 0 = none).

The binding carries spans and the link, nothing else: an unsampled
operation binds nothing at all, and no metric is found through it — a
counter or histogram lives in the registry of the component that
produces it (``NameNode.metrics``, ``NDBCluster.metrics``,
``RemoteDriver.metrics``), which records whether or not anybody traces.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from collections.abc import Sequence
from typing import Any, Callable, Iterator, Optional

from repro.metrics.registry import MetricsRegistry

#: span names treated as exclusive phases when aggregating (see
#: :func:`_summarize`); ``execute`` contributes *self* time only.
PHASE_SPANS = frozenset({"resolve", "lock", "execute", "commit", "lock_wait"})

#: shared empty-children sentinel (see ``Span.__init__``)
_NO_CHILDREN: tuple = ()

#: one immutable (trace, stack, link) binding shared by every thread
#: that is not inside a trace
_EMPTY_BIND: tuple = (None, None, None)


class _ThreadBinding(threading.local):
    """Per-thread trace binding.

    The whole binding lives in ONE ``bind`` tuple — ``(trace, span
    stack, link)`` — so entering/leaving a trace is a single
    thread-local read plus a single write instead of three of each;
    thread-local attribute traffic is a measurable slice of per-span
    cost on hot paths. The class attributes double as per-thread
    defaults: a plain ``threading.local()`` makes every read of a
    never-set attribute pay CPython's raise-and-catch ``AttributeError``
    path inside ``getattr`` (~10x the cost of a hit), and fields like
    ``link_scopes`` are never written on most threads. With class-level
    defaults every read is a cheap attribute hit, so the binding fields
    are read directly — no ``getattr(..., default)`` needed anywhere on
    the hot path.
    """

    #: (trace recording on this thread, live span stack, root trace id
    #: of the logical operation group)
    bind: tuple = _EMPTY_BIND
    link_scopes: int = 0             # depth of active link_scope() blocks


_ACTIVE = _ThreadBinding()

_TRACE_IDS = itertools.count(1)

# bound builtins: module-attribute lookups add up on span capture paths
_perf_counter = time.perf_counter
_get_ident = threading.get_ident


def new_trace_id() -> str:
    """Process-unique trace id (monotonic decimal; one trace per op)."""
    return str(next(_TRACE_IDS))


class Span:
    """One timed region; forms a tree via ``children``.

    ``tid`` records the OS thread that produced the span, so timeline
    exporters can lay cross-thread traces out in per-thread lanes.

    Label values are stored raw at capture time and stringified lazily on
    the first :attr:`labels` access — rendering and export pay the
    ``str()`` churn, not the hot path. A span opened by :func:`span` also
    acts as its own context manager (``_stack`` points at the live span
    stack it must pop on exit), so entering a traced region costs one
    allocation, not two.
    """

    __slots__ = ("name", "_labels", "start", "end", "children", "tid",
                 "_canon", "_stack")

    def __init__(self, name: str, start: float,
                 labels: Optional[dict[str, object]] = None) -> None:
        self.name = name
        self._labels = labels
        self._canon = labels is None
        self._stack: Optional[list["Span"]] = None
        self.start = start
        self.end: Optional[float] = None
        # shared immutable sentinel: most spans are leaves (db events),
        # so the child list is only allocated when a child arrives
        self.children: Sequence["Span"] = _NO_CHILDREN
        self.tid = _get_ident()

    @property
    def labels(self) -> dict[str, str]:
        labels = self._labels
        if labels is None:
            labels = self._labels = {}
            self._canon = True
        elif not self._canon:
            for key, value in labels.items():
                if type(value) is not str:
                    # partition/node-group sets are stored raw and only
                    # collapsed to one shard label when somebody looks
                    labels[key] = (_set_label(value)
                                   if type(value) is tuple else str(value))
            self._canon = True
        return labels

    def set_label(self, key: str, value: object) -> None:
        """Attach one label without canonicalizing the stored dict (the
        :attr:`labels` property would stringify every value in place —
        needless work when a hot path annotates a live span)."""
        labels = self._labels
        if labels is None:
            labels = self._labels = {}
        labels[key] = value
        if type(value) is not str:
            self._canon = False

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = _perf_counter()
        stack = self._stack
        if stack is None:
            return False
        if stack and stack[-1] is self:  # balanced exit: O(1) pop
            stack.pop()
            return False
        try:
            index = stack.index(self)
        except ValueError:  # already popped by an unbalanced outer exit
            return False
        del stack[index:]
        return False

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by direct children."""
        return max(0.0, self.duration
                   - sum(child.duration for child in self.children))

    @property
    def is_event(self) -> bool:
        return self.end is not None and self.end == self.start

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, indent: int = 0) -> str:
        labels = "".join(f" {k}={v}" for k, v in sorted(self.labels.items()))
        mark = "·" if self.is_event else f"{self.duration * 1e3:.3f}ms"
        lines = [f"{'  ' * indent}{self.name}{labels} {mark}"]
        lines += [child.render(indent + 1) for child in self.children]
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (flight-recorder dumps, timeline export)."""
        data: dict[str, Any] = {"name": self.name, "start": self.start,
                                "end": self.end, "tid": self.tid}
        if self.labels:
            data["labels"] = dict(self.labels)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, " \
               f"children={len(self.children)})"


class Trace(Span):
    """One operation's span tree: the trace *is* its root span
    (``root`` returns ``self``), so starting a trace costs a single
    allocation. ``root.name`` is the operation name.

    ``trace_id`` is process-unique; ``parent_id`` is set when the trace
    ran inside a :func:`link_scope` group (subtree-op inner transactions
    point at the trace of the phase that opened the scope).
    """

    __slots__ = ("error", "trace_id", "parent_id",
                 "execute_attempts", "retry_events",
                 "_tracer", "_prev_bind")

    def __init__(self, op: str, start: float,
                 labels: Optional[dict[str, str]] = None,
                 parent_id: Optional[str] = None) -> None:
        # Span.__init__ inlined: one fewer Python call on every sampled
        # operation (keep the field list in sync with Span.__init__)
        self.name = op
        self._labels = labels
        self._canon = labels is None
        self._stack: Optional[list[Span]] = None
        self.start = start
        self.end: Optional[float] = None
        self.children: Sequence[Span] = _NO_CHILDREN
        self.tid = _get_ident()
        self.error: Optional[str] = None
        self.trace_id = new_trace_id()
        self.parent_id = parent_id
        #: filled by ``Tracer._finish`` from its one :func:`_summarize`
        #: pass so finish hooks don't re-walk the span tree per question
        self.execute_attempts = 0
        self.retry_events = 0
        #: the trace is its own `with` target (`Tracer.trace` sets the
        #: owning tracer) — a separate context-manager object would be
        #: one more allocation on every sampled operation
        self._tracer: Optional["Tracer"] = None

    @property
    def root(self) -> Span:
        return self

    def __enter__(self) -> "Trace":
        prev = _ACTIVE.bind
        self._prev_bind = prev
        link = prev[2]
        _ACTIVE.bind = (self, [self],
                        link if link is not None else self.trace_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        bind = _ACTIVE.bind
        prev = self._prev_bind
        if _ACTIVE.link_scopes:
            # an enclosing link_scope keeps the link pinned so sibling
            # traces of this operation group parent under the same root
            prev = (prev[0], prev[1], bind[2])
        _ACTIVE.bind = prev
        stack = bind[1]
        if stack is not None:
            # break the span→stack→root reference cycle: child spans
            # keep a reference to the (shared) stack list, which still
            # holds this trace — left alone, every finished trace needs
            # a cycle-GC pass to be reclaimed instead of plain
            # refcounting, a real cost at full sampling
            stack.clear()
        self.end = _perf_counter()
        if exc_type is not None:
            self.error = exc_type.__name__
        tracer = self._tracer
        if tracer is not None:
            tracer._finish(self)
        return False

    @property
    def op(self) -> str:
        return self.name

    def spans(self, name: Optional[str] = None) -> list[Span]:
        """All spans (optionally filtered by name), depth-first order."""
        return [span for span in self.walk()
                if name is None or span.name == name]

    def events(self, name: Optional[str] = None) -> list[Span]:
        return [span for span in self.spans(name) if span.is_event]

    def phases(self) -> dict[str, float]:
        """Total seconds per Figure-4 phase (see :func:`_summarize`)."""
        return _summarize(self)[0]

    def render(self, indent: int = 0) -> str:
        status = f" error={self.error}" if self.error else ""
        return Span.render(self, indent) + status

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (flight-recorder dumps, timeline export)."""
        return {"trace_id": self.trace_id, "parent_id": self.parent_id,
                "op": self.op, "duration": self.duration,
                "error": self.error, "root": Span.to_dict(self)}


class _NullContext:
    """Shared no-op context manager for unsampled/untraced regions."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_label(self, key: str, value: object) -> None:
        return None


_NULL = _NullContext()


def current_trace() -> Optional[Trace]:
    return _ACTIVE.bind[0]


class TraceContext:
    """A propagable snapshot of the calling thread's trace binding.

    Capture it on the submitting thread, then re-bind on a worker so
    spans/events produced there attach under the submitting span::

        ctx = TraceContext.capture()
        executor.submit(ctx.wrap(task))

    Each :meth:`bind` installs a *fresh* span stack seeded with the
    captured parent span, so concurrent workers never share a stack;
    child-list appends from multiple threads are GIL-atomic.
    """

    __slots__ = ("trace", "parent", "link")

    def __init__(self, trace: Optional[Trace], parent: Optional[Span],
                 link: Optional[str]) -> None:
        self.trace = trace
        self.parent = parent
        self.link = link

    @classmethod
    def capture(cls) -> "TraceContext":
        trace, stack, link = _ACTIVE.bind
        parent = stack[-1] if (trace is not None and stack) else None
        return cls(trace, parent, link)

    def bind(self) -> "_ContextBinding":
        """Context manager installing this snapshot on the current thread."""
        return _ContextBinding(self)

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` bound to this context (identity when empty)."""
        if self.trace is None and self.link is None:
            return fn

        def bound(*args: Any, **kwargs: Any) -> Any:
            with _ContextBinding(self):
                return fn(*args, **kwargs)

        return bound


class _ContextBinding:
    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx: TraceContext) -> None:
        self._ctx = ctx

    def __enter__(self) -> TraceContext:
        self._prev = _ACTIVE.bind
        ctx = self._ctx
        _ACTIVE.bind = (
            ctx.trace,
            [ctx.parent] if ctx.parent is not None else None,
            ctx.link)
        return ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = _ACTIVE.bind[1]
        _ACTIVE.bind = self._prev
        if stack is not None:
            # as in Trace.__exit__: drop the worker stack's reference
            # to the parent span so finished traces free by refcount
            stack.clear()
        return False


class link_scope:
    """Group every trace started inside under one logical operation.

    The first sampled trace in the scope pins the thread's *link* to its
    ``trace_id``; subsequent traces (on this thread, or on workers that
    re-bind a captured :class:`TraceContext`) record ``parent_id``
    pointing at it and are always sampled, so multi-transaction
    operations — the subtree protocol's lock/quiesce/delete-batch
    phases — stay attributable to one root trace.
    """

    __slots__ = ("_prev_link",)

    def __enter__(self) -> "link_scope":
        self._prev_link = _ACTIVE.bind[2]
        _ACTIVE.link_scopes = _ACTIVE.link_scopes + 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.link_scopes -= 1
        bind = _ACTIVE.bind
        _ACTIVE.bind = (bind[0], bind[1], self._prev_link)
        return False


def span(name: str, **labels: object):
    """Open a child span of the current trace (no-op when untraced)."""
    # the stack is bound iff a trace is recording on this thread, so one
    # thread-local read answers "are we tracing?" and gives the parent
    stack: Optional[list[Span]] = _ACTIVE.bind[1]
    if stack is None:
        return _NULL
    child = Span(name, _perf_counter(), labels or None)
    parent = stack[-1]
    children = parent.children
    if type(children) is tuple:
        children = parent.children = []
    children.append(child)
    stack.append(child)
    child._stack = stack
    return child


def attempt_span(attempt: int):
    """Span wrapping one transaction attempt (``DALSession.run``).

    The first attempt is implicit: an operation's ``execute`` phase is
    the trace root's *self* time (total duration minus named phase
    spans), so the conflict-free hot path builds no span object at all.
    Retry attempts get explicit ``execute`` spans so conflict traces
    show every attempt with its own timing and ``attempt`` label.
    """
    if attempt:
        return span("execute", attempt=attempt)
    return _NULL


def add_event(name: str, **labels: object) -> None:
    """Record a zero-duration marker on the current trace (or nothing)."""
    stack = _ACTIVE.bind[1]
    if stack is None:
        return
    now = _perf_counter()
    event = Span(name, now, labels or None)
    event.end = now
    parent = stack[-1]
    children = parent.children
    if type(children) is tuple:
        children = parent.children = []
    children.append(event)


def span_from_dict(data: dict, offset: float = 0.0) -> Span:
    """Rebuild a :class:`Span` tree from its ``to_dict`` form.

    ``offset`` shifts every timestamp — this is how server-process spans
    (recorded against *that* process's ``perf_counter`` epoch) are
    aligned into the client's clock before grafting (see
    :func:`graft_remote_call`). ``tid`` survives the round trip so the
    timeline exporter can lay remote worker threads out in their own
    lanes.
    """
    labels = data.get("labels")
    node = Span(data.get("name", "?"), data.get("start", 0.0) + offset,
                dict(labels) if labels else None)
    end = data.get("end")
    node.end = None if end is None else end + offset
    node.tid = data.get("tid", 0)
    children = data.get("children")
    if children:
        node.children = [span_from_dict(child, offset) for child in children]
    return node


def _graft_leg(children: list[Span], name: str, start: float, end: float,
               tid: int, labels: Optional[dict[str, object]] = None) -> Span:
    leg = Span(name, start, labels)
    leg.end = end
    leg.tid = tid
    children.append(leg)
    return leg


def graft_remote_call(rpc_span: Span, payload: dict,
                      t_send: float, t_sent: float,
                      t_recv: float) -> dict[str, float]:
    """Fold one RPC's server-side trace payload under the client span.

    The server reports its window in its own ``perf_counter`` epoch, so
    the two clocks must be aligned before the spans can share one
    timeline: the round trip's non-server residual
    ``(t_recv - t_sent) - total_s`` is split evenly between the outbound
    and return wire legs (RTT-midpoint offset estimation — the classic
    NTP assumption of a symmetric path), which places the server window
    inside the client's observed round trip.

    The grafted subtree decomposes the client-observed RPC into phases::

        rpc.<method>                    client span (caller-owned)
        ├─ rpc.send                     encode + sendall
        ├─ rpc.wire                     outbound leg
        ├─ rpc.server {pid, server}     the server process's window
        │  ├─ rpc.server_queue          decode/flight overhead pre-handler
        │  └─ <method root>             real engine spans, clock-aligned
        └─ rpc.wire                     return leg

    Returns the phase durations in seconds — ``send`` / ``wire`` /
    ``server_queue`` / ``engine`` — for the caller to feed
    ``rpc_request_seconds{phase}`` histograms.
    """
    total_s = float(payload.get("total_s", 0.0))
    engine_s = float(payload.get("engine_s", 0.0))
    pre_s = float(payload.get("pre_s", 0.0))
    send_s = max(0.0, t_sent - t_send)
    wire_s = max(0.0, (t_recv - t_sent) - total_s)
    # the midpoint estimate is capped so the whole server window fits
    # inside the observed round trip (the server cannot have started
    # before the send began nor finished after the response arrived)
    server_start = max(t_send, min(t_sent + wire_s / 2.0,
                                   t_recv - total_s))
    server_end = server_start + total_s
    tid = rpc_span.tid
    children = rpc_span.children
    if type(children) is tuple:
        children = rpc_span.children = []
    _graft_leg(children, "rpc.send", t_send, t_sent, tid)
    _graft_leg(children, "rpc.wire", t_sent, server_start, tid)
    server = _graft_leg(children, "rpc.server", server_start, server_end,
                        tid, {"pid": payload.get("pid", "?"),
                              "server": payload.get("server", "?")})
    server.children = server_children = []
    _graft_leg(server_children, "rpc.server_queue", server_start,
               min(server_start + pre_s, server_end), tid)
    root = payload.get("root")
    if root is not None:
        # align the engine subtree: its root started at handler entry,
        # which maps to server_start + pre_s on the client clock
        offset = (server_start + pre_s) - root.get("start", 0.0)
        server_children.append(span_from_dict(root, offset))
    _graft_leg(children, "rpc.wire", min(server_end, t_recv), t_recv, tid)
    return {"send": send_s, "wire": wire_s,
            "server_queue": max(0.0, total_s - engine_s),
            "engine": engine_s}


def _set_label(values: Sequence[int]) -> str:
    """Collapse a partition/node-group set into one label value."""
    if not values:
        return "-"
    # compare-in-place instead of building a set: this runs once per
    # database round trip on traced operations
    first = values[0]
    for value in values:
        if value != first:
            return "multi"
    return str(first)


def record_access(kind_value: str, table: str,
                  partitions: Sequence[int] = (),
                  node_groups: Sequence[int] = ()) -> None:
    """Mark one database round trip (called by ``AccessStats.record``).

    The event carries the serving ``shard`` (partition id, ``multi`` for
    fan-out, ``-`` when unknown) and ``node_group`` so traces attribute
    each round trip to the backend component that served it.
    """
    stack = _ACTIVE.bind[1]
    if stack is None:
        return
    now = _perf_counter()
    # store the partition/node-group tuples raw; the labels property
    # collapses them to one shard value only when somebody inspects
    labels = {"table": table, "shard": tuple(partitions)}
    if node_groups:
        labels["node_group"] = tuple(node_groups)
    event = Span("db." + kind_value, now, labels)
    event.end = now
    parent = stack[-1]
    children = parent.children
    if type(children) is tuple:
        children = parent.children = []
    children.append(event)


def _summarize(trace: Trace) -> tuple[dict[str, float], int, int]:
    """``(seconds per Figure-4 phase, execute attempts, tx_retry events)``
    of one trace, in a single iterative pass over its span tree.

    ``resolve``/``lock``/``commit``/``lock_wait`` sum span durations
    across *all* attempts; ``execute`` is the operation's *self* time —
    the root's own time plus any retry-attempt ``execute`` spans' self
    time — so nested resolve/lock/commit spans are not double counted.
    A span still open contributes nothing.
    """
    phases: dict[str, float] = {}
    executes = 0
    retries = 0
    stack: list[Span] = [trace]
    while stack:
        node = stack.pop()
        children = node.children
        if children:
            stack.extend(children)
        name = node.name
        if name == "execute":
            executes += 1
            end = node.end
            seconds = (end - node.start) if end is not None else 0.0
            for child in children:
                cend = child.end
                if cend is not None:
                    seconds -= cend - child.start
            if seconds < 0.0:
                seconds = 0.0
            phases["execute"] = phases.get("execute", 0.0) + seconds
        elif name in PHASE_SPANS:
            end = node.end
            if end is not None:
                phases[name] = (phases.get(name, 0.0)
                                + (end - node.start))
        elif name == "tx_retry":
            retries += 1
    # the first attempt has no "execute" span (see attempt_span): its
    # execute time is the root's self time, and the span count only
    # covers retries
    end = trace.end
    if end is not None:
        seconds = end - trace.start
        for child in trace.children:
            cend = child.end
            if cend is not None:
                seconds -= cend - child.start
        if seconds > 0.0:
            phases["execute"] = phases.get("execute", 0.0) + seconds
    return phases, executes + 1, retries


class Tracer:
    """Per-namenode trace collector.

    * ``sample_every=N``: trace every Nth call *of each operation name*
      (per-op round-robin: the first call of every op is always sampled,
      so rare ops are never starved by hot ones; 1 = all, 0 = none).
      Traces started inside an active :func:`link_scope` group are always
      sampled so operation groups stay complete. An unsampled call binds
      nothing.
    * ``ring_size``: completed traces kept for inspection (FIFO);
    * ``slow_threshold``: seconds above which a trace also lands in the
      slow-operation log (kept separately so bursts of fast traces cannot
      evict the interesting ones);
    * ``registry``: when set, per-phase durations of every finished trace
      are folded into ``hopsfs_phase_seconds{phase,op}`` histograms and
      slow ops counted as ``hopsfs_slow_ops_total{op=...}``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 ring_size: int = 256, slow_log_size: int = 64,
                 slow_threshold: float = 0.5, sample_every: int = 1,
                 on_finish: Optional[Callable[[Trace], None]] = None) -> None:
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0 (0 disables)")
        self.registry = registry
        self.slow_threshold = slow_threshold
        self.sample_every = sample_every
        self.on_finish = on_finish
        self._ring: deque[Trace] = deque(maxlen=ring_size)
        self._slow: deque[Trace] = deque(maxlen=slow_log_size)
        #: per-op monotonic sequence; itertools.count() advances without
        #: a lock (``next`` on a count is atomic under the GIL), so the
        #: sampling decision costs no lock round on the hot path
        self._op_seq: dict[str, Iterator[int]] = {}
        self._lock = threading.Lock()
        #: pre-resolved metric handles so finishing a trace skips the
        #: registry's per-call label canonicalization
        self._phase_hists: dict[str, dict] = {}  # op -> phase -> histogram
        self._slow_counters: dict[str, Any] = {}
        self.traces_started = 0
        self.traces_dropped = 0  # unsampled operations

    # -- tracing ---------------------------------------------------------------

    def trace(self, op: str, **labels: object):
        """Start a trace for one operation (or a no-op if sampled out).

        Sampled calls return the :class:`Trace` itself (it is its own
        context manager); unsampled calls return the shared no-op.
        """
        link = _ACTIVE.bind[2]
        sample_every = self.sample_every
        if sample_every == 0 and link is None:
            return _NULL
        if sample_every != 1 and link is None:
            # only fractional sampling needs the per-op round-robin
            # sequence; trace-everything skips the counter machinery
            seq_counter = self._op_seq.get(op)
            if seq_counter is None:
                seq_counter = self._op_seq.setdefault(op, itertools.count())
            if next(seq_counter) % sample_every != 0:
                self.traces_dropped += 1
                return _NULL
        self.traces_started += 1
        trace = Trace(op, _perf_counter(), labels or None,
                      parent_id=link)
        trace._tracer = self
        return trace

    def _finish(self, trace: Trace) -> None:
        phases, trace.execute_attempts, trace.retry_events = _summarize(trace)
        # deque.append is atomic under the GIL (maxlen eviction included),
        # so the ring and slow log need no lock round here
        self._ring.append(trace)
        slow = trace.duration >= self.slow_threshold
        if slow:
            self._slow.append(trace)
        registry = self.registry
        if registry is not None:
            op_hists = self._phase_hists.get(trace.op)
            if op_hists is None:
                op_hists = self._phase_hists[trace.op] = {}
            for phase, seconds in phases.items():
                metric = op_hists.get(phase)
                if metric is None:
                    metric = op_hists[phase] = registry.histogram(
                        "hopsfs_phase_seconds", phase=phase, op=trace.op)
                metric.observe(seconds)
            if slow:
                counter = self._slow_counters.get(trace.op)
                if counter is None:
                    counter = self._slow_counters[trace.op] = (
                        registry.counter("hopsfs_slow_ops_total",
                                         op=trace.op))
                counter.inc()
        if self.on_finish is not None:
            self.on_finish(trace)

    # -- inspection ------------------------------------------------------------

    def recent(self, n: Optional[int] = None) -> list[Trace]:
        with self._lock:
            traces = list(self._ring)
        return traces if n is None else traces[-n:]

    def slow_ops(self) -> list[Trace]:
        with self._lock:
            return list(self._slow)

    def find(self, trace_id: str) -> Optional[Trace]:
        """Look a trace up by id in the ring and slow log (newest first)."""
        with self._lock:
            candidates = list(self._ring) + list(self._slow)
        for trace in reversed(candidates):
            if trace.trace_id == trace_id:
                return trace
        return None
