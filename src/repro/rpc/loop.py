"""One frame loop behind a handler table: the listener, the selector and
the leader/follower threads a server is made of.

A :class:`FrameLoop` is given a handler table (``{method: fn(peer,
params)}``), an ``on_connect(conn)`` that returns a connection's *peer*
(what its handlers get) and an ``on_drop(peer)`` that tears the peer
down. It owns the rest: the listener (TCP or AF_UNIX), the connection
counters, and around each handler the flight record, the
``rpc_requests_total``/``rpc_request_seconds``/``rpc_errors_total``
metrics, the ``rpc.server.request`` and ``rpc.server.duplicate_response``
fault sites and a sampled request's trace envelope. A handler's
exception becomes the error reply (``on_error(peer, method, params)``
sees it first); a frame without an ``id`` gets no reply.

One loop serves every connection: a selector reads whichever connection
is ready and answers its frames inline, so with no waits the server runs
on one thread. A request that must wait calls :func:`repro.util.park.park`
first, which hands the loop to a standby thread (leader/follower) and
takes the request's connection out of the selector until its reply is
sent: its later frames wait, every other connection is served.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable, Mapping
from typing import Any, Optional

from repro.errors import RPCError
from repro.faults import DropConnection, fault_point
from repro.metrics.flightrecorder import FlightRecorder
from repro.metrics.registry import (
    CounterMetric,
    HistogramMetric,
    MetricsRegistry,
)
from repro.metrics.tracing import Span, Trace
from repro.rpc import protocol
from repro.rpc.conn import FrameConn
from repro.util import park

#: a handler: the connection's peer and the request's params in, the
#: reply's result out
Handler = Callable[[Any, Mapping[str, Any]], Any]

#: the ``method`` label of a request the table has no handler for: one
#: label, so the names a peer makes up cannot grow the registry
UNKNOWN_METHOD = "unknown"

#: selector payloads of the two sockets that are not connections
_ACCEPT = "accept"
_WAKE = "wake"


class _ServerConn(FrameConn):
    """The server's side of one connection.

    Its :meth:`close` may come from any thread and only shuts the socket
    down: the loop reads end-of-stream and drops the connection, and only
    then closes the descriptor (:meth:`release`), so the selector never
    watches a closed one.
    """

    #: what ``on_connect`` returned for this connection
    peer: Any = None
    close = FrameConn.shutdown
    release = FrameConn.close


class FrameLoop:
    """Serves one handler table from one leader/follower loop."""

    def __init__(self, handlers: Mapping[str, Handler],
                 on_connect: Callable[[FrameConn], Any],
                 on_drop: Callable[[Any], None], *,
                 registry: MetricsRegistry, flight: FlightRecorder,
                 name: str,
                 on_error: Optional[Callable[[Any, Any, Any], None]] = None
                 ) -> None:
        self._handlers = handlers
        self._on_connect = on_connect
        self._on_drop = on_drop
        self._on_error = on_error
        self.registry = registry
        self.flight = flight
        self.name = name
        #: ``rpc_requests_total`` / ``rpc_request_seconds`` handles by method
        # guarded_by: GIL -- racing fillers store the registry's own metrics
        self._method_metrics: dict[str, tuple[CounterMetric,
                                              HistogramMetric]] = {}
        # the leader thread alone touches the selector, the listener and
        # the connection being answered
        self._selector: Optional[selectors.BaseSelector] = None  # guarded_by: owner-thread
        self._listener: Optional[socket.socket] = None  # guarded_by: owner-thread
        self._unix_path: Optional[str] = None  # guarded_by: owner-thread -- set by start()
        self._current: Optional[_ServerConn] = None  # guarded_by: owner-thread
        #: rings the leader out of ``select`` (handed-back connections,
        #: the end of accepting, the halt)
        self._waker: Optional[socket.socket] = None  # guarded_by: GIL
        #: connections a parked request hands back to the loop
        self._returning: deque[_ServerConn] = deque()  # guarded_by: GIL
        #: one release hands the loop to one standby
        self._baton = threading.Semaphore(0)
        self._idle = 0  # guarded_by: _mutex -- standbys waiting for the baton
        self._threads: list[threading.Thread] = []  # guarded_by: _mutex
        self._conns: set[_ServerConn] = set()       # guarded_by: _mutex
        self._mutex = threading.Lock()
        self._closing = False  # guarded_by: GIL -- one flag flip
        self._halt = False     # guarded_by: GIL -- one flag flip

    # -- lifecycle -------------------------------------------------------------

    def start(self, host: str, port: int,
              unix_path: Optional[str] = None) -> int:
        """Bind the listener (an AF_UNIX socket at ``unix_path`` when
        given) and start the loop on a background thread; returns the
        bound TCP port (0 on AF_UNIX)."""
        if unix_path is not None:
            try:  # a stale socket file from a dead server blocks bind()
                os.unlink(unix_path)
            except FileNotFoundError:
                pass
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(unix_path)
            listener.listen(64)
            self._unix_path = unix_path
        else:
            listener = socket.create_server((host, port), backlog=64)
        listener.setblocking(False)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, _ACCEPT)
        wake, self._waker = socket.socketpair()
        wake.setblocking(False)
        self._waker.setblocking(False)
        self._selector.register(wake, selectors.EVENT_READ, _WAKE)
        self._spawn()
        return 0 if unix_path is not None else listener.getsockname()[1]

    def peers(self) -> list[Any]:
        """The peers of every open connection."""
        with self._mutex:
            return [conn.peer for conn in self._conns]

    def stop_accepting(self) -> None:
        """Close the listener (the leader does, when woken) and remove
        its socket file."""
        self._closing = True
        self._wake()
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass

    def halt(self) -> None:
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
            leftover = list(self._conns)
        for conn in leftover:  # handed back after the leader left
            self._drop(conn, registered=False)
        if self._waker is not None:
            self._waker.close()

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
        self._selector.unregister(self._current)
        self._promote()

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
        """Run the loop on this thread: accept, read ready connections and
        answer their frames. True once a request handed the loop to a
        standby (this thread then stands by itself), False on the halt."""
        select = self._selector.select
        while True:
            for key, _events in select():
                conn = key.data
                if conn is _WAKE:
                    if not self._on_wake(key.fileobj):
                        return False
                elif conn is _ACCEPT:
                    self._accept()
                else:
                    try:
                        conn.read_ready()
                    except RPCError:  # peer went away
                        self._drop(conn, registered=True)
                        continue
                    if not self._serve(conn):
                        return True

    def _on_wake(self, wake: socket.socket) -> bool:
        """Act on a wake: close the loop on the halt (False), the listener
        once closing, and take handed-back connections in again."""
        try:
            wake.recv(4096)
        except OSError:
            pass
        if self._halt:
            self._close_loop()
            return False
        if self._closing and self._listener is not None:
            self._selector.unregister(self._listener)
            self._listener.close()
            self._listener = None
        while self._returning:
            conn = self._returning.popleft()
            self._selector.register(conn, selectors.EVENT_READ, conn)
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
                sock, _addr = self._listener.accept()
            except OSError:  # nobody else is waiting to connect
                return
            sock.setblocking(True)
            if sock.family == socket.AF_INET:  # no Nagle on AF_UNIX
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _ServerConn(sock)
            conn.peer = self._on_connect(conn)
            with self._mutex:
                self._conns.add(conn)
            self.registry.inc("rpc_connections_total")
            self.registry.gauge("rpc_open_connections").inc(1)
            self._selector.register(conn, selectors.EVENT_READ, conn)

    def _serve(self, conn: _ServerConn) -> bool:
        """Answer every complete frame buffered on ``conn``, in order;
        returns whether this thread still leads the loop.

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
                message = conn.next_frame()
            except RPCError:  # garbage on the stream
                alive = False
            else:
                if message is None:
                    break
                if leading:
                    self._current = conn
                    hook.fn = self._hand_off
                try:
                    alive = self._answer(conn, message)
                finally:
                    if leading:
                        leading = hook.fn is not None
                        hook.fn = None
            if not alive:
                self._drop(conn, registered=leading)
                return leading
        if not leading:
            self._returning.append(conn)
            self._wake()
        return leading

    def _answer(self, conn: _ServerConn, message: Mapping[str, Any]) -> bool:
        """Dispatch one frame and send its reply; False when the
        connection must go."""
        try:
            response = self._dispatch(conn.peer, message)
            if "id" in message:  # a one-way frame is never answered
                conn.send(response)
                if fault_point("rpc.server.duplicate_response",
                               method=message.get("method", "")):
                    conn.send(response)  # veto = send it twice
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

    def _drop(self, conn: _ServerConn, registered: bool) -> None:
        """Tear a connection down, once, whoever gets here first: drop its
        peer, free its socket. ``registered``: it is in the selector (only
        the leader knows that)."""
        if registered:
            self._selector.unregister(conn)
        with self._mutex:
            if conn not in self._conns:
                return
            self._conns.discard(conn)
        self._on_drop(conn.peer)
        conn.release()
        self.registry.gauge("rpc_open_connections").inc(-1)

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self, peer: Any,
                  message: Mapping[str, Any]) -> dict[str, Any]:
        req_id = message.get("id", 0)
        method = message.get("method", "")
        params = message.get("params") or {}
        handler = self._handlers.get(method)
        label = method if handler is not None else UNKNOWN_METHOD
        record = self.flight.begin(f"rpc.{method}")
        error: Optional[BaseException] = None
        try:
            if handler is None:
                raise protocol.ProtocolError(f"unknown method {method!r}")
            if not isinstance(params, Mapping):
                raise protocol.ProtocolError("params must be an object")
            fault_point("rpc.server.request", method=method)
            if message.get("trace") is None:
                return protocol.ok(req_id, handler(peer, params))
            # a sampled request: the spans the handler records (an
            # engine's lock_wait, log_flush, ...) go under a trace of
            # their own, and the reply ships the tree and this server's
            # perf_counter window, which the client's graft_remote_call
            # aligns into the originating operation's tree
            trace = Trace(f"rpc.{method}", time.perf_counter())
            with trace:
                result = handler(peer, params)
            response = protocol.ok(req_id, result)
            response["trace"] = {
                "pid": os.getpid(), "server": self.name,
                "pre_s": trace.start - record.start,
                "engine_s": trace.end - trace.start,
                "total_s": time.perf_counter() - record.start,
                "root": Span.to_dict(trace),
            }
            return response
        except DropConnection as exc:
            # injected transport kill: must never be serialized — the
            # loop closes the socket instead of answering
            error = exc
            raise
        except Exception as exc:  # noqa: BLE001 - every error goes on the wire
            error = exc
            self.registry.inc("rpc_errors_total", method=label,
                              type=type(exc).__name__)
            if self._on_error is not None:
                self._on_error(peer, method, params)
            return protocol.error(req_id, exc)
        finally:
            metrics = self._method_metrics.get(label)
            if metrics is None:
                metrics = self._method_metrics[label] = (
                    self.registry.counter("rpc_requests_total", method=label),
                    self.registry.histogram("rpc_request_seconds",
                                            method=label))
            metrics[0].inc()
            # the flight record's begin and end are the request's timing
            metrics[1].observe(self.flight.end(record, error=error))
