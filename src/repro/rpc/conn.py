"""Framed socket connections: blocking transport plus the client side.

:class:`FrameConn` is the symmetric transport both ends share — blocking
reads of exactly one frame, write-locked sends so concurrent senders
never interleave a frame.

:class:`ClientConn` adds the client-side request plumbing: request-id
allocation, the synchronous ``call()``, the one-way ``notify()`` (a
frame without an id, which the server never answers) and the
connection-scoped transaction numbers a client-begun transaction names
itself with. The server answers a connection's requests strictly in
order, so a caller just reads until its own id comes back. A connection
is owned by one logical caller at a time (the driver's pool hands it to
one transaction); it is not a multiplexer.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Mapping, Optional

from repro.errors import (
    ConnectionClosedError,
    ProtocolError,
    RequestTimeoutError,
)
from repro.faults import fault_point
from repro.rpc import protocol


class FrameConn:
    """One framed, blocking socket connection."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_mutex = threading.Lock()  # a frame is sent atomically
        self._closed = False  # guarded_by: GIL

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, message: Mapping[str, Any]) -> None:
        data = protocol.encode_frame(message)
        try:
            with self._send_mutex:
                self._sock.sendall(data)
        except OSError as exc:
            self.close()
            raise ConnectionClosedError(f"send failed: {exc}") from None

    def recv(self) -> dict[str, Any]:
        header = self._recv_exact(4)
        length = protocol.decode_length(header)
        return protocol.decode_payload(self._recv_exact(length))

    def _recv_exact(self, n: int) -> bytes:
        chunks: list[bytes] = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout:
                # a late response would desync id matching; poison the conn
                self.close()
                raise RequestTimeoutError(
                    f"no data within the request timeout ({n - remaining}"
                    f"/{n} bytes read)") from None
            except OSError as exc:
                self.close()
                raise ConnectionClosedError(f"recv failed: {exc}") from None
            if not chunk:
                self.close()
                raise ConnectionClosedError("peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def settimeout(self, timeout: Optional[float]) -> None:
        self._sock.settimeout(timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close really should not fail
            pass


class ClientConn:
    """A client connection: request ids, sync calls, one-way frames."""

    def __init__(self, sock: socket.socket,
                 timeout: Optional[float] = None) -> None:
        sock.settimeout(timeout)
        self._conn = FrameConn(sock)
        self._next_id = 0  # guarded_by: owner-thread
        self._next_tx = 0  # guarded_by: owner-thread

    @property
    def closed(self) -> bool:
        return self._conn.closed

    def next_tx(self) -> int:
        """A transaction number unused on this connection so far."""
        self._next_tx += 1
        return self._next_tx

    def call(self, method: str,
             params: Optional[Mapping[str, Any]] = None) -> Any:
        """Send one request and return its result (raising remote errors)."""
        return self._await(self._send(method, params)).get("result")

    def call_traced(self, method: str,
                    params: Optional[Mapping[str, Any]] = None,
                    trace: Optional[Mapping[str, Any]] = None
                    ) -> tuple[Any, Optional[dict[str, Any]],
                               float, float, float]:
        """A ``call`` that propagates a trace envelope and times itself.

        Returns ``(result, server_trace_payload, t_send, t_sent,
        t_recv)`` — ``perf_counter`` marks taken before the send, after
        ``sendall`` returned, and after the response arrived, which is
        exactly what :func:`repro.metrics.tracing.graft_remote_call`
        needs to align the server's window into the client clock. The
        payload is ``None`` when the server attached no spans (error
        responses, unsampled requests).
        """
        t_send = time.perf_counter()
        req_id = self._send(method, params, trace=trace)
        t_sent = time.perf_counter()
        response = self._await(req_id)
        t_recv = time.perf_counter()
        return (response.get("result"), response.get("trace"),
                t_send, t_sent, t_recv)

    def notify(self, method: str,
               params: Optional[Mapping[str, Any]] = None) -> None:
        """Send a one-way frame: no id, so the server sends no reply."""
        self._send(method, params, one_way=True)

    def close(self) -> None:
        self._conn.close()

    # -- internals -------------------------------------------------------------

    def settimeout(self, timeout: Optional[float]) -> None:
        """Adjust the per-request socket deadline (deadline clamping)."""
        self._conn.settimeout(timeout)

    def _send(self, method: str,
              params: Optional[Mapping[str, Any]],
              trace: Optional[Mapping[str, Any]] = None,
              one_way: bool = False) -> Optional[int]:
        # injected connection reset: close before sending so the send
        # (or the response read) fails exactly like a TCP RST would
        if fault_point("rpc.client.send", method=method):
            self._conn.close()
        req_id = None
        if not one_way:
            self._next_id += 1
            req_id = self._next_id
        self._conn.send(protocol.request(req_id, method, params,
                                         trace=trace))
        return req_id

    def _await(self, req_id: int) -> dict[str, Any]:
        while True:
            response = self._conn.recv()
            got = response.get("id")
            if got == req_id:
                break
            # duplicates of already-answered responses (delivered twice
            # by a flaky server) have older ids — ignore them; an id
            # from the *future* is a real protocol violation
            if not (isinstance(got, int) and got < req_id):
                self._conn.close()
                raise ProtocolError(
                    f"response id {got!r} does not match request {req_id}")
        if not response.get("ok"):
            protocol.raise_remote(response.get("error", {}))
        return response


def dial(host: str, port: int, *, unix_path: Optional[str] = None,
         timeout: Optional[float] = None,
         connect_timeout: Optional[float] = None) -> socket.socket:
    """Open a connected socket (TCP, or AF_UNIX when ``unix_path`` set)."""
    if unix_path is not None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(connect_timeout if connect_timeout is not None
                        else timeout)
        sock.connect(unix_path)
    else:
        sock = socket.create_connection(
            (host, port),
            timeout=connect_timeout if connect_timeout is not None
            else timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(timeout)
    return sock
