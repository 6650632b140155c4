"""``ndb-server``: hosts an NDB cluster and serves the DAL over a socket.

One server process owns one :class:`repro.ndb.NDBCluster` (through its
DAL driver) and exposes the full ``DALTransaction`` contract plus
admin/failure-injection and observability endpoints, in protocol
version 4 (:mod:`repro.rpc.protocol`): a transaction begins on its first
request, buffered writes (``delete`` among them) arrive on the next
reply-bearing request and are applied before that request's own
operation, a ``tx.read_batch`` may carry the scans that follow it and
the commit of its read-only transaction (both kinds of commit run
through :meth:`NDBServer._commit`), and frames without an ``id`` get no
reply. Each connection has its own DAL session and its frames are
handled strictly in order.

One loop serves every connection: a selector accepts, reads the frames
of whichever connection is ready and answers each one inline, so with no
waits the whole server runs on one thread and never hands the GIL to
another. A request that must wait — a row lock, the group-commit flush,
a simulated round trip or shard fan-out, a contended partition lock, an
injected delay: every such site calls :func:`repro.util.park.park` first
— hands the loop to a standby thread before it blocks (leader/follower,
a standby is promoted only on a wait), and its connection leaves the
selector until the request's reply is sent, so the connection's later
frames wait for it while every other connection is served — a lock
holder's commit among them.

Connection death is transaction death: every transaction opened on a
connection is aborted when the connection goes away, so a crashed or
timed-out client never leaves row locks behind. So is failure: a
``tx.*`` request that fails — in a fault site, in a write it carried, in
its own operation or in the commit — has its transaction aborted and
forgotten before the error reply is sent.

Graceful shutdown (SIGTERM / ``KeyboardInterrupt`` / the ``shutdown``
RPC) stops accepting connections, refuses requests that would begin a
transaction with :class:`ServerShutdownError`, waits up to
``drain_timeout`` seconds for in-flight transactions to commit or abort,
aborts whatever remains, and only then tears the engine down. Redo-log
flushing needs no extra step: the group-committed log's ``append``
blocks until the record is flushed, so every transaction that managed
to commit is already durable. On exit the server writes its metrics
snapshot (with raw histogram samples, so snapshots from many processes
merge exactly) and dumps its flight recorder when a dump directory is
configured.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import socket
import sys
import threading
import time
import traceback
from collections import deque
from typing import Any, Mapping, Optional

from repro import faults
from repro.dal.driver import DALDriver
from repro.dal.ndb_driver import NDBDriver
from repro.errors import (
    ConnectionClosedError,
    RPCError,
    ServerShutdownError,
    TransactionAbortedError,
)
from repro.faults import DropConnection, FaultInjector, FaultPlan, fault_point
from repro.metrics import export
from repro.metrics.flightrecorder import FlightRecorder
from repro.metrics.registry import CounterMetric, HistogramMetric
from repro.metrics.tracing import Span, Trace
from repro.ndb.config import NDBConfig
from repro.ndb.locks import LockMode
from repro.rpc import protocol
from repro.rpc.conn import FrameConn
from repro.rpc.protocol import StatsCursor
from repro.util import park

#: stdout handshake line prefix the supervisor waits for
READY_PREFIX = "REPRO-NDB-SERVE READY"


#: the buffered writes a request may carry: every write method of the
#: DAL contract (none of them returns anything)
_BUFFERED_WRITES = frozenset({"insert", "update", "write", "delete"})

#: selector payloads of the two sockets that are not connections
_ACCEPT = "accept"
_WAKE = "wake"

#: bytes read from a ready connection at a time (a larger frame spans
#: several ready events); above glibc's 128 KiB mmap threshold every read
#: would allocate its buffer with mmap and free it with munmap
_READ_SIZE = 64 * 1024


def _lock_mode(name: Optional[str]) -> LockMode:
    if not name:
        return LockMode.READ_COMMITTED
    try:
        return LockMode[name]
    except KeyError:
        raise protocol.ProtocolError(f"unknown lock mode {name!r}") from None


class _ServerConn(FrameConn):
    """The server's side of one connection, read when it is ready.

    The loop reads what a readable socket holds (:meth:`read_ready`) and
    takes complete frames out of the buffer (:meth:`next_frame`); replies
    go out through the blocking :meth:`FrameConn.send`. :meth:`close` may
    come from any thread and only shuts the socket down: the loop reads
    end-of-stream, and the connection's owner tears it down and closes
    the descriptor (:meth:`release`), so the selector never watches a
    closed one.
    """

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(sock)
        self._buf = bytearray()  # guarded_by: owner-thread

    def fileno(self) -> int:
        return self._sock.fileno()

    def read_ready(self) -> None:
        """Append what the (readable) socket holds to the buffer."""
        try:
            chunk = self._sock.recv(_READ_SIZE)
        except OSError as exc:
            raise ConnectionClosedError(f"recv failed: {exc}") from None
        if not chunk:
            raise ConnectionClosedError("peer closed the connection")
        self._buf += chunk

    def next_frame(self) -> Optional[dict[str, Any]]:
        """Take the next complete frame out of the buffer (None: none yet)."""
        buf = self._buf
        if len(buf) < 4:
            return None
        end = 4 + protocol.decode_length(buf[:4])
        if len(buf) < end:
            return None
        payload = buf[4:end]
        del buf[:end]
        return protocol.decode_payload(payload)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def release(self) -> None:
        """Close the descriptor (the connection's owner, once it is out of
        the selector)."""
        super().close()


class _ConnState:
    """Per-connection server state: its connection, one DAL session and
    the session's open transactions."""

    def __init__(self, conn: _ServerConn, session: Any) -> None:
        self.conn = conn
        self.session = session
        #: handle -> (transaction, stats cursor)
        self.txs: dict[int, tuple[Any, StatsCursor]] = {}  # guarded_by: lock
        self.lock = threading.Lock()  # the serving thread vs shutdown's abort

    def abort_all(self) -> int:
        """Abort every open transaction; returns how many were aborted."""
        with self.lock:
            victims = list(self.txs.values())
            self.txs.clear()
        for tx, _cursor in victims:
            try:
                tx.abort()
            except Exception:  # noqa: BLE001 - teardown is best effort
                pass
        return len(victims)

    def open_tx_count(self) -> int:
        with self.lock:
            return len(self.txs)


class NDBServer:
    """Serves one DAL driver (normally an NDB cluster) over a socket."""

    def __init__(self, driver: Optional[DALDriver] = None,
                 config: Optional[NDBConfig] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None,
                 name: str = "ndb0",
                 drain_timeout: float = 5.0,
                 metrics_path: Optional[str] = None,
                 metrics_port: Optional[int] = None,
                 flight_dir: Optional[str] = None) -> None:
        if driver is not None and config is not None:
            raise ValueError("pass either a driver or a config, not both")
        self.driver = driver if driver is not None else NDBDriver(config=config)
        self.name = name
        self.host = host
        self.port = port  # guarded_by: owner-thread -- set by start()
        #: listen on an AF_UNIX socket at this path instead of TCP
        self.unix_path = unix_path
        #: the engine's own registry, served as this process's: ``rpc_*``
        #: lands next to the ``ndb_*`` the engine records itself
        self.registry = self.driver.metrics_registry()
        self.drain_timeout = drain_timeout
        self.metrics_path = metrics_path
        #: serve the registry over HTTP (Prometheus + JSON) when set
        #: (0 picks a free port; the bound port lands on the READY line)
        self.metrics_port = metrics_port
        self.metrics_http_port = 0  # guarded_by: owner-thread
        self._metrics_http: Optional["_MetricsHTTP"] = None  # guarded_by: owner-thread
        self.flight = FlightRecorder(name=f"rpc-{name}", dump_dir=flight_dir)
        #: open server-side transactions across all connections — the
        #: queue-depth signal the autoscaler/`repro top` consume
        self._open_txs = self.registry.gauge("rpc_open_txs")
        #: ``rpc_requests_total`` / ``rpc_request_seconds`` handles by method
        # guarded_by: GIL -- racing fillers store the registry's own metrics
        self._method_metrics: dict[str, tuple[CounterMetric,
                                              HistogramMetric]] = {}
        # the loop: the leader thread alone touches the selector, the
        # listener and the connection being answered
        self._selector: Optional[selectors.BaseSelector] = None  # guarded_by: owner-thread
        self._listener: Optional[socket.socket] = None  # guarded_by: owner-thread
        self._current: Optional[_ConnState] = None  # guarded_by: owner-thread
        #: rings the leader out of ``select`` (handed-back connections,
        #: the end of accepting, the halt)
        self._waker: Optional[socket.socket] = None  # guarded_by: GIL
        #: connections a parked request hands back to the loop
        self._returning: deque[_ConnState] = deque()  # guarded_by: GIL
        #: one release hands the loop to one standby
        self._baton = threading.Semaphore(0)
        self._idle = 0  # guarded_by: _mutex -- standbys waiting for the baton
        self._threads: list[threading.Thread] = []  # guarded_by: _mutex
        self._states: set[_ConnState] = set()       # guarded_by: _mutex
        self._mutex = threading.Lock()
        self._draining = False   # guarded_by: GIL -- one flag flip
        self._halt = False       # guarded_by: GIL -- one flag flip
        self._stopped = False    # guarded_by: _mutex [writes]
        #: set when something (signal, shutdown RPC) asks the server to stop
        self.stop_requested = threading.Event()
        self._handlers = {
            "hello": self._h_hello,
            "ping": self._h_ping,
            "create_table": self._h_create_table,
            "table_size": self._h_table_size,
            "tables": self._h_tables,
            "tx.read": self._h_tx_read,
            "tx.read_batch": self._h_tx_read_batch,
            "tx.ppis": self._h_tx_ppis,
            "tx.ppis_batch": self._h_tx_ppis_batch,
            "tx.index_scan": self._h_tx_index_scan,
            "tx.full_scan": self._h_tx_full_scan,
            "tx.commit": self._h_tx_commit,
            "tx.abort": self._h_tx_abort,
            "metrics": self._h_metrics,
            "flight_dump": self._h_flight_dump,
            "admin": self._h_admin,
            "faults.install": self._h_faults_install,
            "faults.clear": self._h_faults_clear,
            "faults.fired": self._h_faults_fired,
            "shutdown": self._h_shutdown,
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Bind the listener and start the loop on a background thread."""
        if self.unix_path is not None:
            try:  # a stale socket file from a dead server blocks bind()
                os.unlink(self.unix_path)
            except FileNotFoundError:
                pass
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.unix_path)
            listener.listen(64)
        else:
            listener = socket.create_server((self.host, self.port),
                                            backlog=64)
        listener.setblocking(False)
        self._listener = listener
        if self.unix_path is None:
            self.port = listener.getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_http = _MetricsHTTP(self)
            self.metrics_http_port = self._metrics_http.start(
                self.host, self.metrics_port)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, _ACCEPT)
        wake, self._waker = socket.socketpair()
        wake.setblocking(False)
        self._waker.setblocking(False)
        self._selector.register(wake, selectors.EVENT_READ, _WAKE)
        self._spawn()

    def request_stop(self) -> None:
        """Ask the serving loop to stop (signal-handler safe)."""
        self.stop_requested.set()

    def stop(self) -> None:
        """Graceful shutdown: drain, abort leftovers, persist, tear down."""
        with self._mutex:
            if self._stopped:
                return
            self._stopped = True
        self._draining = True
        self.stop_requested.set()
        self._wake()  # the loop closes the listener
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        # drain: give in-flight transactions a chance to finish cleanly
        deadline = time.monotonic() + self.drain_timeout
        while time.monotonic() < deadline:
            with self._mutex:
                open_txs = sum(s.open_tx_count() for s in self._states)
            if not open_txs:
                break
            time.sleep(0.01)
        # abort the rest and kick the connections loose; every transaction
        # silently aborted here missed the drain window, which the
        # shutdown metrics snapshot must admit to
        with self._mutex:
            states = list(self._states)
        drain_aborted = sum(state.abort_all() for state in states)
        if drain_aborted:
            self.registry.inc("rpc_drain_aborted_total", drain_aborted)
            self._open_txs.inc(-drain_aborted)
        if self._metrics_http is not None:
            self._metrics_http.stop()
            self._metrics_http = None
        for state in states:
            state.conn.close()  # the loop reads end-of-stream and drops it
        self._halt_loop()
        self._persist_observability()
        cluster = getattr(self.driver, "cluster", None)
        if cluster is not None and hasattr(cluster, "close"):
            cluster.close()

    def serve_until_stopped(self) -> None:
        """Block until a stop is requested, then shut down gracefully."""
        try:
            while not self.stop_requested.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            pass
        self.stop()

    def __enter__(self) -> "NDBServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _persist_observability(self) -> None:
        registry = self.driver.metrics_registry()  # gauges refreshed
        if self.metrics_path:
            meta = {"server": self.name, "pid": os.getpid(),
                    "engine": self.driver.engine_name, "reason": "shutdown"}
            try:
                with open(self.metrics_path, "w", encoding="utf-8") as fh:
                    fh.write(export.to_json(registry, meta=meta,
                                            include_samples=True))
            except OSError:  # pragma: no cover - disk full/permissions
                pass
        if self.flight.dump_dir and self.flight.ops():
            try:
                self.flight.dump(reason="shutdown")
            except OSError:  # pragma: no cover
                pass

    # -- the loop: leader, standbys, hand-off ------------------------------------

    def _spawn(self) -> None:
        """Start a loop thread that takes the loop at once."""
        thread = threading.Thread(target=self._run, args=(True,),
                                  name=f"rpc-loop-{self.name}", daemon=True)
        with self._mutex:
            self._threads.append(thread)
        thread.start()

    def _run(self, leading: bool) -> None:
        """A loop thread: lead when handed the loop, stand by in between."""
        while True:
            if not leading:
                with self._mutex:
                    self._idle += 1
                self._baton.acquire()
            if self._halt or not self._lead():
                return
            leading = False

    def _promote(self) -> None:
        """Hand the loop to an idle standby, or to a new thread."""
        with self._mutex:
            standby = self._idle > 0
            if standby:
                self._idle -= 1
        if standby:
            self._baton.release()
        else:
            self._spawn()

    def _hand_off(self) -> None:
        """The park hook of a request answered on the loop: its connection
        leaves the selector (its next frames wait for this reply) and a
        standby takes the loop."""
        self._selector.unregister(self._current.conn)
        self._promote()

    def _halt_loop(self) -> None:
        """Stop every loop thread; drop what none of them got to."""
        self._halt = True
        with self._mutex:
            threads = list(self._threads)
        for _ in threads:
            self._baton.release()  # a standby wakes to the halt and exits
        self._wake()               # so does the leader
        for thread in threads:
            thread.join(timeout=2.0)
        with self._mutex:
            leftover = list(self._states)
        for state in leftover:  # handed back after the leader left
            self._drop(state, registered=False)
        if self._waker is not None:
            self._waker.close()

    def _wake(self) -> None:
        """Ring the leader out of ``select``."""
        waker = self._waker
        if waker is None:
            return
        try:
            waker.send(b"\0")
        except OSError:  # full (a wake is pending anyway) or closed (halted)
            pass

    def _lead(self) -> bool:
        """Run the loop on this thread: True once a request handed it to a
        standby (this thread then stands by itself), False on the halt."""
        select = self._selector.select
        while True:
            for key, _events in select():
                state = key.data
                if state is _WAKE:
                    if not self._on_wake(key.fileobj):
                        return False
                elif state is _ACCEPT:
                    self._accept()
                elif not self._on_ready(state):
                    return True

    def _on_wake(self, wake: socket.socket) -> bool:
        """Act on a wake: close the loop on the halt (False), the listener
        once stopping, and take handed-back connections in again."""
        try:
            wake.recv(4096)
        except OSError:
            pass
        if self._halt:
            self._close_loop()
            return False
        if self._stopped and self._listener is not None:
            self._selector.unregister(self._listener)
            self._listener.close()
            self._listener = None
        while self._returning:
            state = self._returning.popleft()
            self._selector.register(state.conn, selectors.EVENT_READ, state)
        return True

    def _close_loop(self) -> None:
        """The halting leader's last act: drop the connections still in
        the selector, close the listener, the wake socket, the selector."""
        for key in list(self._selector.get_map().values()):
            if key.data is _ACCEPT or key.data is _WAKE:
                key.fileobj.close()
            else:
                self._drop(key.data, registered=True)
        self._listener = None
        self._selector.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _peer = self._listener.accept()
            except OSError:  # nobody else is waiting to connect
                return
            sock.setblocking(True)
            if sock.family == socket.AF_INET:  # no Nagle on AF_UNIX
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            state = _ConnState(_ServerConn(sock), self.driver.session())
            with self._mutex:
                self._states.add(state)
            self.registry.inc("rpc_connections_total")
            self.registry.gauge("rpc_open_connections").inc(1)
            self._selector.register(state.conn, selectors.EVENT_READ, state)

    def _on_ready(self, state: _ConnState) -> bool:
        """Read a ready connection and answer its complete frames; whether
        this thread still leads the loop."""
        try:
            state.conn.read_ready()
        except RPCError:  # peer went away
            self._drop(state, registered=True)
            return True
        return self._serve(state)

    def _serve(self, state: _ConnState) -> bool:
        """Answer every complete frame buffered on ``state``'s connection,
        in order; returns whether this thread still leads the loop.

        On the loop a frame is answered under the park hook. Once a
        request parked, the loop is gone to a standby: this thread answers
        the connection's remaining buffered frames itself (off the loop
        park is a no-op — they block in place) and hands the connection
        back to the loop.
        """
        hook = park.HOOK
        leading = True
        while True:
            try:
                message = state.conn.next_frame()
            except RPCError:  # garbage on the stream
                alive = False
            else:
                if message is None:
                    break
                if leading:
                    self._current = state
                    hook.fn = self._hand_off
                try:
                    alive = self._answer(state, message)
                finally:
                    if leading:
                        leading = hook.fn is not None
                        hook.fn = None
            if not alive:
                self._drop(state, registered=leading)
                return leading
        if not leading:
            self._returning.append(state)
            self._wake()
        return leading

    def _answer(self, state: _ConnState, message: Mapping[str, Any]) -> bool:
        """Dispatch one frame and send its reply; False when the
        connection must go."""
        try:
            response = self._dispatch(state, message)
            if "id" in message:  # a one-way frame is never answered
                state.conn.send(response)
                if fault_point("rpc.server.duplicate_response",
                               method=message.get("method", "")):
                    state.conn.send(response)  # veto = send it twice
        except DropConnection:
            # injected crash: close the socket without a response,
            # exactly like the process dying here
            self.registry.inc("rpc_injected_conn_drops_total")
            return False
        except RPCError:  # the peer is gone, or the reply cannot be encoded
            return False
        except Exception:  # noqa: BLE001 - e.g. an injected error at the reply; the loop must go on
            traceback.print_exc()
            return False
        return True

    def _drop(self, state: _ConnState, registered: bool) -> None:
        """Tear a connection down, once, whoever gets here first: abort its
        transactions, free its socket. ``registered``: it is in the
        selector (only the leader knows that)."""
        if registered:
            self._selector.unregister(state.conn)
        with self._mutex:
            if state not in self._states:
                return
            self._states.discard(state)
        aborted = state.abort_all()
        if aborted:
            self._open_txs.inc(-aborted)
        state.conn.release()
        self.registry.gauge("rpc_open_connections").inc(-1)

    def _dispatch(self, state: _ConnState,
                  message: Mapping[str, Any]) -> dict[str, Any]:
        req_id = message.get("id", 0)
        method = message.get("method", "")
        params = message.get("params") or {}
        wire_trace = message.get("trace")
        handler = self._handlers.get(method)
        record = self.flight.begin(f"rpc.{method}")
        started = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            if handler is None:
                raise protocol.ProtocolError(f"unknown method {method!r}")
            if not isinstance(params, Mapping):
                raise protocol.ProtocolError("params must be an object")
            fault_point("rpc.server.request", method=method)
            if wire_trace is None:
                return protocol.ok(req_id, handler(state, params))
            return self._dispatch_traced(state, params, req_id, method,
                                         handler, wire_trace, started)
        except DropConnection as exc:
            # injected transport kill: must never be serialized — the
            # loop closes the socket instead of answering
            error = exc
            raise
        except Exception as exc:  # noqa: BLE001 - every error goes on the wire
            error = exc
            self.registry.inc("rpc_errors_total", method=method,
                              type=type(exc).__name__)
            handle = params.get("tx") if isinstance(params, Mapping) else None
            if method.startswith("tx.") and isinstance(handle, int):
                # an error reply ends the transaction (protocol rule)
                self._abort_tx(state, handle)
            return protocol.error(req_id, exc)
        finally:
            metrics = self._method_metrics.get(method)
            if metrics is None:
                metrics = self._method_metrics[method] = (
                    self.registry.counter("rpc_requests_total", method=method),
                    self.registry.histogram("rpc_request_seconds",
                                            method=method))
            metrics[0].inc()
            metrics[1].observe(time.perf_counter() - started)
            self.flight.end(record, error=error)

    def _dispatch_traced(self, state: _ConnState, params: Mapping[str, Any],
                         req_id: int, method: str, handler: Any,
                         wire_trace: Mapping[str, Any],
                         started: float) -> dict[str, Any]:
        """Serve one sampled request under a per-request server trace.

        The incoming envelope marks the request sampled: engine spans the
        handler produces (``lock_wait``, ``commit.participant``,
        ``shard_fetch``, ``log_flush``) record under a fresh
        :class:`Trace` bound to this thread, and the response ships the
        finished span tree plus the server's ``perf_counter`` window —
        :func:`repro.metrics.tracing.graft_remote_call` on the client
        aligns it into the originating operation's tree.
        """
        trace = Trace(f"rpc.{method}", time.perf_counter())
        with trace:
            result = handler(state, params)
        response = protocol.ok(req_id, result)
        response["trace"] = {
            "pid": os.getpid(), "server": self.name,
            "client_trace_id": wire_trace.get("id"),
            "started": started,
            "pre_s": trace.start - started,
            "engine_s": trace.end - trace.start,
            "total_s": time.perf_counter() - started,
            "root": Span.to_dict(trace),
        }
        return response

    # -- tx plumbing -----------------------------------------------------------

    def _tx(self, state: _ConnState,
            params: Mapping[str, Any]) -> tuple[Any, StatsCursor]:
        """The request's transaction, ready for the request's own operation:
        begun if this is its first request, and with the buffered writes
        the request carries applied, in the client's call order."""
        handle = params.get("tx")
        if "begin" in params:
            entry = self._begin(state, handle, params["begin"])
        else:
            with state.lock:
                entry = state.txs.get(handle)
            if entry is None:
                raise TransactionAbortedError(
                    f"unknown transaction handle {handle!r} "
                    "(aborted server-side or already finished)")
        tx = entry[0]
        for op, table, *args in params.get("writes", ()):
            if op not in _BUFFERED_WRITES:
                raise protocol.ProtocolError(f"unknown buffered write {op!r}")
            getattr(tx, op)(table, *args)
        return entry

    def _begin(self, state: _ConnState, handle: Any,
               hint: Any) -> tuple[Any, StatsCursor]:
        if self._draining:
            raise ServerShutdownError(
                f"server {self.name} is draining for shutdown")
        with state.lock:
            if not isinstance(handle, int) or handle in state.txs:
                raise protocol.ProtocolError(
                    f"cannot begin a transaction as handle {handle!r}")
        # hfs: allow(HFS103, reason=server proxy: the remote client owns the transaction template; this session is its wire-side twin)
        entry = (state.session.begin(tuple(hint) if hint else None),
                 StatsCursor())
        with state.lock:
            state.txs[handle] = entry
        self._open_txs.inc(1)
        return entry

    def _forget_tx(self, state: _ConnState, handle: Any) -> Optional[Any]:
        """Unregister ``handle``; the transaction it named, if any."""
        with state.lock:
            entry = state.txs.pop(handle, None)
        if entry is None:
            return None
        self._open_txs.inc(-1)
        return entry[0]

    def _abort_tx(self, state: _ConnState, handle: Any) -> None:
        tx = self._forget_tx(state, handle)
        if tx is not None:
            try:
                tx.abort()
            except Exception:  # noqa: BLE001 - the request's error is the news
                pass

    @staticmethod
    def _tx_reply(params: Mapping[str, Any], entry: tuple[Any, StatsCursor],
                  **fields: Any) -> dict[str, Any]:
        tx, cursor = entry
        fields["stats"] = cursor.delta(tx.stats)
        if "begin" in params:
            fields["coordinator"] = getattr(tx, "coordinator", -1)
        return fields

    # -- handlers: control plane -----------------------------------------------

    def _h_hello(self, state: _ConnState,
                 params: Mapping[str, Any]) -> dict[str, Any]:
        theirs = params.get("protocol")
        if theirs != protocol.PROTOCOL_VERSION:
            raise protocol.ProtocolError(
                f"client speaks protocol {theirs!r}, server speaks "
                f"{protocol.PROTOCOL_VERSION}")
        return {"protocol": protocol.PROTOCOL_VERSION,
                "engine": self.driver.engine_name,
                "server": self.name, "pid": os.getpid()}

    def _h_ping(self, state: _ConnState,
                params: Mapping[str, Any]) -> str:
        delay = params.get("delay")
        if delay:  # test hook: simulate a slow server for timeout coverage
            park.park()
            time.sleep(float(delay))
        return "pong"

    def _h_create_table(self, state: _ConnState,
                        params: Mapping[str, Any]) -> bool:
        self.driver.create_table(protocol.decode_schema(params["schema"]))
        return True

    def _h_table_size(self, state: _ConnState,
                      params: Mapping[str, Any]) -> int:
        return self.driver.table_size(params["table"])

    def _h_tables(self, state: _ConnState,
                  params: Mapping[str, Any]) -> list[str]:
        cluster = getattr(self.driver, "cluster", None)
        if cluster is not None and hasattr(cluster, "tables"):
            return cluster.tables()
        return []

    def _h_shutdown(self, state: _ConnState,
                    params: Mapping[str, Any]) -> dict[str, Any]:
        # reply first, stop after: the loop sends this response and the
        # main thread (or a background stopper) runs the actual stop
        threading.Thread(target=self._delayed_stop, daemon=True).start()
        return {"stopping": True}

    def _delayed_stop(self) -> None:
        time.sleep(0.05)  # let the shutdown response reach the client
        self.request_stop()
        self.stop()

    # -- handlers: transactions ------------------------------------------------

    def _h_tx_read(self, state: _ConnState,
                   params: Mapping[str, Any]) -> dict[str, Any]:
        entry = self._tx(state, params)
        row = entry[0].read(params["table"], params["key"],
                            lock=_lock_mode(params.get("lock")))
        return self._tx_reply(params, entry, row=row)

    def _h_tx_read_batch(self, state: _ConnState,
                         params: Mapping[str, Any]) -> dict[str, Any]:
        locks = params.get("locks")
        scans = params.get("scans")
        commit = bool(params.get("commit"))

        def read(tx: Any) -> Any:
            # hfs: allow(HFS106, reason=server relays client-supplied keys verbatim; the ordering obligation is linted at the client call site)
            return tx.read_batch(
                params["table"], params["keys"],
                lock=_lock_mode(params.get("lock")),
                locks=(None if locks is None else
                       [_lock_mode(name) for name in locks]),
                scans=(None if scans is None else
                       [(table, values) for table, values in scans]),
                commit=commit)

        if commit:
            entry, result = self._commit(state, params, read)
        else:
            entry = self._tx(state, params)
            result = read(entry[0])
        if scans is None:
            return self._tx_reply(params, entry,
                                  **protocol.encode_rows(result))
        rows, scanned = result
        return self._tx_reply(
            params, entry, **protocol.encode_rows(rows),
            scans=[protocol.encode_rows(found) for found in scanned])

    def _h_tx_ppis(self, state: _ConnState,
                   params: Mapping[str, Any]) -> dict[str, Any]:
        entry = self._tx(state, params)
        rows = entry[0].ppis(params["table"], params["partition_values"],
                             predicate=None,  # predicates filter client-side
                             lock=_lock_mode(params.get("lock")),
                             columns=params.get("columns"))
        return self._tx_reply(params, entry, **protocol.encode_rows(rows))

    def _h_tx_ppis_batch(self, state: _ConnState,
                         params: Mapping[str, Any]) -> dict[str, Any]:
        entry = self._tx(state, params)
        results = entry[0].ppis_batch(
            [(table, values) for table, values in params["scans"]],
            lock=_lock_mode(params.get("lock")))
        return self._tx_reply(
            params, entry,
            scans=[protocol.encode_rows(rows) for rows in results])

    def _h_tx_index_scan(self, state: _ConnState,
                         params: Mapping[str, Any]) -> dict[str, Any]:
        entry = self._tx(state, params)
        rows = entry[0].index_scan(params["table"], params["index"],
                                   params["values"], predicate=None,
                                   lock=_lock_mode(params.get("lock")))
        return self._tx_reply(params, entry, **protocol.encode_rows(rows))

    def _h_tx_full_scan(self, state: _ConnState,
                        params: Mapping[str, Any]) -> dict[str, Any]:
        entry = self._tx(state, params)
        rows = entry[0].full_scan(params["table"], predicate=None)
        return self._tx_reply(params, entry, **protocol.encode_rows(rows))

    def _commit(self, state: _ConnState, params: Mapping[str, Any],
                commit: Any) -> tuple[tuple[Any, StatsCursor], Any]:
        """Serve a request that ends its transaction: ``commit(tx)`` is
        the call that commits it — ``tx.commit()``, or the read of a
        ``tx.read_batch`` carrying ``"commit": true``. Returns the
        transaction's entry and what ``commit`` returned."""
        # "crash before the commit applied": the transaction is still
        # registered (or not yet begun), so an injected error aborts it
        # through the error-reply rule and an injected connection drop
        # through the conn teardown's abort_all — its row locks go either
        # way (the client's CommitAmbiguousError resolves to: aborted)
        fault_point("rpc.server.commit.before", tx=params.get("tx"))
        entry = self._tx(state, params)
        # a failure in here — a read that cannot get its lock, a commit
        # that cannot apply — leaves the transaction registered for the
        # error-reply rule to abort and forget
        result = commit(entry[0])
        self._forget_tx(state, params.get("tx"))
        # "crash after the commit applied": the client sees the same
        # connection loss, but the commit is durable (resolves to:
        # committed) — the two sides of the ambiguity, by construction
        fault_point("rpc.server.commit.after", tx=params.get("tx"))
        return entry, result

    def _h_tx_commit(self, state: _ConnState,
                     params: Mapping[str, Any]) -> dict[str, Any]:
        entry, _ = self._commit(state, params, lambda tx: tx.commit())
        return self._tx_reply(params, entry)

    def _h_tx_abort(self, state: _ConnState,
                    params: Mapping[str, Any]) -> dict[str, Any]:
        self._abort_tx(state, params.get("tx"))
        return {}

    # -- handlers: observability -----------------------------------------------

    def _h_metrics(self, state: _ConnState,
                   params: Mapping[str, Any]) -> dict[str, Any]:
        meta = {"server": self.name, "pid": os.getpid(),
                "engine": self.driver.engine_name}
        registry = self.driver.metrics_registry()  # gauges refreshed
        data = export.snapshot(
            registry, meta=meta,
            include_samples=params.get("include_samples", True))
        window = params.get("window")
        if window:
            data["windows"] = export.windows(registry, float(window))
        return data

    def _h_flight_dump(self, state: _ConnState,
                       params: Mapping[str, Any]) -> Optional[str]:
        if not self.flight.ops():
            return None
        return self.flight.dump(reason=params.get("reason", "rpc_request"))

    # -- handlers: fault injection -----------------------------------------------

    def _fault_callbacks(self) -> dict[str, Any]:
        """Callbacks ``action="call"`` specs may name on this server."""
        cluster = getattr(self.driver, "cluster", None)
        callbacks: dict[str, Any] = {}
        if cluster is not None:
            callbacks["kill_node"] = \
                lambda node: cluster.kill_node(int(node))
            callbacks["restart_node"] = \
                lambda node: cluster.restart_node(int(node))
        return callbacks

    def install_fault_plan(self, plan: FaultPlan) -> FaultInjector:
        """Install a plan process-wide, wired to this server's metrics,
        flight recorder and cluster callbacks."""
        injector = FaultInjector(plan, registry=self.registry,
                                 recorder=self.flight,
                                 callbacks=self._fault_callbacks())
        return faults.install(injector)

    def _h_faults_install(self, state: _ConnState,
                          params: Mapping[str, Any]) -> dict[str, Any]:
        plan = FaultPlan.from_dict(params["plan"])
        self.install_fault_plan(plan)
        return {"installed": True, "seed": plan.seed,
                "specs": len(plan.specs)}

    def _h_faults_clear(self, state: _ConnState,
                        params: Mapping[str, Any]) -> dict[str, Any]:
        injector = faults.uninstall()
        return {"cleared": injector is not None,
                "fired": len(injector.fired) if injector is not None else 0}

    def _h_faults_fired(self, state: _ConnState,
                        params: Mapping[str, Any]) -> dict[str, Any]:
        injector = faults.active()
        if injector is None:
            return {"installed": False, "fired": [], "counts": {}}
        return {"installed": True,
                "fired": [f.to_dict() for f in injector.fired],
                "counts": injector.counts()}

    # -- handlers: admin / failure injection -------------------------------------

    def _h_admin(self, state: _ConnState, params: Mapping[str, Any]) -> Any:
        cluster = getattr(self.driver, "cluster", None)
        if cluster is None:
            raise RuntimeError(
                f"engine {self.driver.engine_name!r} has no admin surface")
        op = params["op"]
        if op == "kill_node":
            cluster.kill_node(int(params["node"]))
            return True
        if op == "restart_node":
            cluster.restart_node(int(params["node"]))
            return True
        if op == "complete_epoch":
            return cluster.complete_epoch()
        if op == "local_checkpoint":
            cluster.local_checkpoint()
            return True
        if op == "crash_and_recover":
            return cluster.crash_and_recover()
        if op == "is_available":
            return cluster.is_available()
        if op == "live_nodes":
            return cluster.live_nodes()
        if op == "partition_sizes":
            return {str(pid): size for pid, size
                    in cluster.partition_sizes(params["table"]).items()}
        if op == "group_commit_stats":
            return cluster.group_commit_stats
        if op == "replica_snapshots":
            return self._replica_snapshots(cluster, params["table"])
        raise protocol.ProtocolError(f"unknown admin op {op!r}")

    @staticmethod
    def _replica_snapshots(cluster: Any, table: str) -> dict[str, Any]:
        """Per-partition row snapshots of every live replica (tests)."""
        schema = cluster.schema(table)
        out: dict[str, Any] = {}
        for pid in range(cluster.config.num_partitions):
            replicas = []
            for node_id in cluster._pmap.replica_nodes(pid):
                node = cluster.datanodes[node_id]
                if not node.alive:
                    continue
                rows = sorted(node.fragment(table, pid).scan(),
                              key=schema.pk_of)
                replicas.append(protocol.encode_rows(rows))
            out[str(pid)] = replicas
        return out


# -- metrics HTTP endpoint -----------------------------------------------------


class _MetricsHTTP:
    """Background HTTP server exposing the registry (scrape endpoint).

    ``GET /metrics`` serves the Prometheus text exposition; ``GET
    /metrics.json`` a sample-carrying JSON snapshot with sliding-window
    views attached (``?window=N`` seconds, default 60) — the feed
    ``python -m repro top`` and the autoscaler poll; ``GET /healthz`` a
    liveness probe. Runs on its own thread pool so a slow scrape never
    blocks the RPC loop.
    """

    def __init__(self, ndb: "NDBServer") -> None:
        self._ndb = ndb
        self._httpd: Optional[Any] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, host: str, port: int) -> int:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        from urllib.parse import parse_qs, urlparse

        ndb = self._ndb

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                parsed = urlparse(self.path)
                if parsed.path in ("/", "/metrics", "/metrics.json"):
                    registry = ndb.driver.metrics_registry()  # gauges fresh
                if parsed.path in ("/", "/metrics"):
                    body = export.prometheus_text(registry)
                    ctype = "text/plain; version=0.0.4"
                elif parsed.path == "/metrics.json":
                    query = parse_qs(parsed.query)
                    try:
                        window = float(query.get("window", ["60"])[0])
                    except ValueError:
                        window = 60.0
                    data = export.snapshot(
                        registry, include_samples=True,
                        meta={"server": ndb.name, "pid": os.getpid(),
                              "engine": ndb.driver.engine_name})
                    data["windows"] = export.windows(registry, window)
                    body = json.dumps(data, sort_keys=True)
                    ctype = "application/json"
                elif parsed.path == "/healthz":
                    body = json.dumps({"ok": True, "server": ndb.name,
                                       "pid": os.getpid()})
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                payload = body.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args: Any) -> None:
                pass  # stdout belongs to the READY handshake

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"metrics-http-{ndb.name}", daemon=True)
        self._thread.start()
        return self._httpd.server_address[1]

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


# -- CLI entry point (python -m repro serve) -----------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run an ndb-server process serving the DAL over TCP.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one; the chosen port "
                             "is printed on the READY line)")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="listen on an AF_UNIX socket at PATH instead "
                             "of TCP (--host/--port are ignored)")
    parser.add_argument("--name", default="ndb0",
                        help="server name used in metrics/flight artifacts")
    parser.add_argument("--datanodes", type=int, default=4)
    parser.add_argument("--replication", type=int, default=2)
    parser.add_argument("--partitions-per-node", type=int, default=2)
    parser.add_argument("--lock-timeout", type=float, default=1.2)
    parser.add_argument("--executor-threads", type=int, default=4)
    parser.add_argument("--network-delay", type=float, default=0.0)
    parser.add_argument("--log-flush-delay", type=float, default=0.0)
    parser.add_argument("--drain-timeout", type=float, default=5.0)
    parser.add_argument("--fault-plan", default=None, metavar="PATH",
                        help="install the JSON fault plan at PATH at startup "
                             "(chaos runs against supervised workers)")
    parser.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="write a mergeable metrics snapshot here on exit")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve /metrics (Prometheus) and /metrics.json "
                             "over HTTP on PORT (0 picks a free one; the "
                             "bound port is printed on the READY line)")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="flight-recorder dump directory for this process")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = NDBConfig(
        num_datanodes=args.datanodes,
        replication=args.replication,
        partitions_per_node=args.partitions_per_node,
        lock_timeout=args.lock_timeout,
        executor_threads=args.executor_threads,
        network_delay=args.network_delay,
        log_flush_delay=args.log_flush_delay,
    )
    server = NDBServer(config=config, host=args.host, port=args.port,
                       unix_path=args.unix,
                       name=args.name, drain_timeout=args.drain_timeout,
                       metrics_path=args.metrics_json,
                       metrics_port=args.metrics_port,
                       flight_dir=args.flight_dir)
    if args.fault_plan:
        with open(args.fault_plan, encoding="utf-8") as fh:
            server.install_fault_plan(FaultPlan.from_dict(json.load(fh)))
    server.start()

    def _on_signal(_signum: int, _frame: Any) -> None:
        server.request_stop()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    ready = f"{READY_PREFIX} host={server.host} port={server.port} " \
            f"pid={os.getpid()}"
    if server.unix_path is not None:
        ready += f" unix={server.unix_path}"
    if server.metrics_port is not None:
        ready += f" metrics={server.metrics_http_port}"
    print(ready, flush=True)
    server.serve_until_stopped()
    print(f"REPRO-NDB-SERVE EXIT name={args.name}", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
