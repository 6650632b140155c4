"""Boundary spans recorded from outside the program.

Two public seams are wrapped for the traced half of a run: the entries
of ``HopsFSCluster.namenodes`` (client -> namenode) and
``NameNode.driver`` (namenode -> DAL; ``session()``, ``begin``/``run``
and every ``DALTransaction`` method). A span is ``(id, parent, op,
name, start_ns, end_ns)``; spans of one op share ``op``. A layer's self
time is its span minus the part its children cover.

Subtree operations fan work out to worker threads. Those spans have no
parent on the op's own thread: they are kept (and counted as DAL calls)
but stay out of the self-time ledger, where the op thread's wait for
them shows as namenode self time.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Iterable

ROOT_SPAN = "client"

_READ_CALLS = frozenset({"read", "read_batch", "ppis", "index_scan",
                         "full_scan"})
_TX_CALLS = _READ_CALLS | {"insert", "update", "write", "delete", "commit",
                           "abort"}

#: the ledger's columns, in stack order
LAYERS = ("client", "namenode", "dal.read", "dal.commit", "dal.other")


def layer_of(name: str) -> str:
    if name == ROOT_SPAN:
        return "client"
    if name.startswith("namenode."):
        return "namenode"
    call = name[len("dal."):]
    if call in _READ_CALLS:
        return "dal.read"
    return "dal.commit" if call == "commit" else "dal.other"


class Recorder:
    """Collects spans in memory; one stack per thread."""

    def __init__(self, single_client: bool) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: the op in flight when there is one client: worker threads the
        #: namenode starts attribute their spans to it
        self.shared_op = -1
        self._single = single_client

    def set_op(self, op_id: int) -> None:
        self._local.op = op_id
        if self._single:
            self.shared_op = op_id

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        now = time.perf_counter_ns

        def spanned(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans.append((span_id, parent,
                              getattr(local, "op", self.shared_op),
                              name, start, end))

        return spanned


class _Proxy:
    """Forwards everything; methods named in ``_spanned`` get a span."""

    _spanned: frozenset = frozenset()
    _prefix = ""

    def __init__(self, target: Any, recorder: Recorder) -> None:
        self.__dict__["_target"] = target
        self.__dict__["_recorder"] = recorder

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._target, name)
        if name not in self._spanned or not callable(attr):
            return attr
        wrapped = self._recorder.wrap(self._prefix + name, self._adapt(
            name, attr))
        self.__dict__[name] = wrapped
        return wrapped

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)

    def _adapt(self, name: str, method: Callable) -> Callable:
        return method


class TxProxy(_Proxy):
    _spanned = _TX_CALLS
    _prefix = "dal."


class SessionProxy(_Proxy):
    _spanned = frozenset({"begin", "run"})
    _prefix = "dal."

    def _adapt(self, name: str, method: Callable) -> Callable:
        recorder = self._recorder
        if name == "begin":
            return lambda *a, **kw: TxProxy(method(*a, **kw), recorder)

        def run(fn: Callable, *args: Any, **kwargs: Any) -> Any:
            # the session's own loop begins, retries and aborts; the
            # callback commits through the proxy so that commit gets its
            # own span (run() skips its commit when the transaction is
            # no longer active)
            def body(tx: Any) -> Any:
                proxy = TxProxy(tx, recorder)
                result = recorder.wrap("namenode.tx_body", fn)(proxy)
                if getattr(getattr(tx, "state", None), "name", "") == "ACTIVE":
                    proxy.commit()
                return result

            return method(body, *args, **kwargs)

        return run


class DriverProxy(_Proxy):
    _spanned = frozenset({"session"})
    _prefix = "dal."

    def _adapt(self, name: str, method: Callable) -> Callable:
        return lambda: SessionProxy(method(), self._recorder)


class NameNodeProxy(_Proxy):
    """Spans every public method call a client makes on the namenode."""

    _prefix = "namenode."

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._target, name)
        if name.startswith("_") or not callable(attr):
            return attr
        wrapped = self._recorder.wrap(self._prefix + name, attr)
        self.__dict__[name] = wrapped
        return wrapped


class Tracing:
    """Swaps the proxies in on enter and the real objects back on exit."""

    def __init__(self, fs: Any, recorder: Recorder) -> None:
        self._fs = fs
        self._recorder = recorder
        self._namenodes = list(fs.namenodes)

    def __enter__(self) -> Recorder:
        for i, nn in enumerate(self._namenodes):
            nn.driver = DriverProxy(nn.driver, self._recorder)
            self._fs.namenodes[i] = NameNodeProxy(nn, self._recorder)
        return self._recorder

    def __exit__(self, *exc: Any) -> None:
        for i, nn in enumerate(self._namenodes):
            self._fs.namenodes[i] = nn
            nn.driver = nn.driver._target


# -- the ledger ----------------------------------------------------------------


def self_times(spans: Iterable[tuple]) -> dict[int, dict]:
    """Per op: self time (ns) per layer, root duration, DAL call counts.

    Returns ``{op: {"root_ns", "self_ns": {layer: ns}, "offthread_ns",
    "dal_calls", "txs"}}``. ``self_ns`` covers the spans on the op's own
    thread and sums to ``root_ns``.
    """
    spans = list(spans)
    child_ns: dict[int, int] = {}
    for _id, parent, _op, _name, start, end in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    on_thread = {s[0] for s in spans if s[3] == ROOT_SPAN}
    # spans are appended when they end, so a child precedes its parent;
    # walk backwards to see parents first
    for span_id, parent, *_ in reversed(spans):
        if parent in on_thread:
            on_thread.add(span_id)
    ops: dict[int, dict] = {}
    for span_id, _parent, op, name, start, end in spans:
        entry = ops.get(op)
        if entry is None:
            entry = ops[op] = {"root_ns": 0, "self_ns": dict.fromkeys(LAYERS, 0),
                               "offthread_ns": 0, "dal_calls": 0, "txs": 0}
        if name.startswith("dal.") and name != "dal.session":
            entry["dal_calls"] += 1
            if name in ("dal.run", "dal.begin"):
                entry["txs"] += 1
        if span_id not in on_thread:
            if name.startswith("dal."):
                entry["offthread_ns"] += end - start - child_ns.get(span_id, 0)
            continue
        if name == ROOT_SPAN:
            entry["root_ns"] = end - start
        entry["self_ns"][layer_of(name)] += (end - start
                                             - child_ns.get(span_id, 0))
    return ops
