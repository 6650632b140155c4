"""``ndb-server``: hosts an NDB cluster and serves the DAL over a socket.

One server process owns one :class:`repro.ndb.NDBCluster` (the DAL
driver itself) and serves the full ``DALTransaction`` contract plus
admin, fault-injection and observability endpoints in the wire
protocol of :data:`repro.rpc.protocol.PROTOCOL_VERSION`: a transaction
begins on its first request, buffered writes ride the next
reply-bearing request and are applied before its own operation, and a
``tx.read_batch`` may carry the scans that follow it and the commit of
its read-only transaction (both kinds of commit run through
:meth:`NDBServer._commit`).

:class:`NDBServer` is a handler table and a transaction registry; the
:class:`repro.rpc.loop.FrameLoop` it hands them to does the serving.
A connection's peer is its DAL session and open transactions.
Connection death is transaction death: dropping a connection aborts its
transactions, so a crashed or timed-out client leaves no row locks
behind. So is failure: a ``tx.*`` request that fails — in a fault site,
in a write it carried, in its own operation or in the commit — has its
transaction aborted and forgotten before the error reply is sent.

Graceful shutdown (SIGTERM, ``KeyboardInterrupt`` or the ``shutdown``
RPC) stops accepting, refuses to begin transactions
(:class:`ServerShutdownError`), waits up to ``drain_timeout`` seconds
for the open ones, aborts the rest and only then tears the engine down
(a group-committed ``append`` returns once flushed, so every commit is
already durable). It then writes a sample-carrying metrics snapshot and
dumps the flight recorder, when configured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import signal
import sys
import threading
import time
from collections.abc import Callable, Mapping
from typing import Any, Optional

from repro import faults
from repro.errors import ServerShutdownError, TransactionAbortedError
from repro.faults import FaultInjector, FaultPlan, fault_point
from repro.metrics import export
from repro.metrics.flightrecorder import FlightRecorder
from repro.ndb.cluster import NDBCluster
from repro.ndb.config import NDBConfig
from repro.ndb.locks import LockMode
from repro.rpc import protocol
from repro.rpc.conn import FrameConn
from repro.rpc.loop import FrameLoop
from repro.rpc.protocol import StatsCursor
from repro.util import park

#: stdout handshake line prefix the supervisor waits for
READY_PREFIX = "REPRO-NDB-SERVE READY"


#: the buffered writes a request may carry: every write method of the
#: DAL contract (none of them returns anything)
_BUFFERED_WRITES = frozenset({"insert", "update", "write", "delete",
                              "delete_batch"})


def _lock_mode(name: Optional[str]) -> LockMode:
    if not name:
        return LockMode.READ_COMMITTED
    try:
        return LockMode[name]
    except KeyError:
        raise protocol.ProtocolError(f"unknown lock mode {name!r}") from None


def _replica_snapshots(cluster: NDBCluster, table: str) -> dict[str, Any]:
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


def _done(_result: Any) -> bool:
    return True


#: the ``admin`` RPC's operations: op -> fn(cluster, params)
_ADMIN_OPS: dict[str, Callable[[NDBCluster, Mapping[str, Any]], Any]] = {
    "kill_node": lambda c, p: _done(c.kill_node(int(p["node"]))),
    "restart_node": lambda c, p: _done(c.restart_node(int(p["node"]))),
    "complete_epoch": lambda c, p: c.complete_epoch(),
    "local_checkpoint": lambda c, p: _done(c.local_checkpoint()),
    "crash_and_recover": lambda c, p: c.crash_and_recover(),
    "is_available": lambda c, p: c.is_available(),
    "live_nodes": lambda c, p: c.live_nodes(),
    "partition_sizes": lambda c, p: {
        str(pid): size for pid, size in c.partition_sizes(p["table"]).items()},
    "group_commit_stats": lambda c, p: c.group_commit_stats,
    "replica_snapshots": lambda c, p: _replica_snapshots(c, p["table"]),
}


#: the ``tx.*`` requests that run one operation on their transaction:
#: name -> fn(tx, params) returning the reply's fields (predicates filter
#: client-side, so none crosses the wire)
_TX_OPS: dict[str, Callable[[Any, Mapping[str, Any]], dict[str, Any]]] = {
    "tx.read": lambda tx, p: {"row": tx.read(
        p["table"], p["key"], lock=_lock_mode(p.get("lock")))},
    "tx.ppis": lambda tx, p: protocol.encode_rows(tx.ppis(
        p["table"], p["partition_values"], predicate=None,
        lock=_lock_mode(p.get("lock")), columns=p.get("columns"))),
    "tx.ppis_batch": lambda tx, p: {"scans": [
        protocol.encode_rows(rows) for rows in tx.ppis_batch(
            [(table, values) for table, values in p["scans"]],
            lock=_lock_mode(p.get("lock")))]},
    "tx.index_scan": lambda tx, p: protocol.encode_rows(tx.index_scan(
        p["table"], p["index"], p["values"], predicate=None,
        lock=_lock_mode(p.get("lock")))),
    "tx.full_scan": lambda tx, p: protocol.encode_rows(
        tx.full_scan(p["table"], predicate=None)),
}


class _ConnState:
    """A connection's peer on this server: the connection, one DAL
    session and the session's open transactions."""

    def __init__(self, conn: FrameConn, session: Any) -> None:
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
    """Serves one NDB cluster over a socket."""

    def __init__(self, config: Optional[NDBConfig] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None,
                 name: str = "ndb0",
                 drain_timeout: float = 5.0,
                 metrics_path: Optional[str] = None,
                 metrics_port: Optional[int] = None,
                 flight_dir: Optional[str] = None) -> None:
        self.cluster = NDBCluster(config)
        self.name = name
        self.host = host
        self.port = port  # guarded_by: owner-thread -- set by start()
        #: listen on an AF_UNIX socket at this path instead of TCP
        self.unix_path = unix_path
        #: the engine's own registry, served as this process's: ``rpc_*``
        #: lands next to the ``ndb_*`` the engine records itself
        self.registry = self.cluster.metrics_registry()
        self.drain_timeout = drain_timeout
        self.metrics_path = metrics_path
        #: serve the registry over HTTP (Prometheus + JSON) when set
        #: (0 picks a free port; the bound port lands on the READY line)
        self.metrics_port = metrics_port
        self.metrics_http_port = 0  # guarded_by: owner-thread
        self._metrics_http: Optional[Any] = None  # guarded_by: owner-thread
        self.flight = FlightRecorder(name=f"rpc-{name}", dump_dir=flight_dir)
        #: open server-side transactions across all connections — the
        #: queue-depth signal the autoscaler/`repro top` consume
        self._open_txs = self.registry.gauge("rpc_open_txs")
        self._mutex = threading.Lock()
        self._draining = False   # guarded_by: GIL -- one flag flip
        self._stopped = False    # guarded_by: _mutex [writes]
        #: set when something (signal, shutdown RPC) asks the server to stop
        self.stop_requested = threading.Event()
        cluster = self.cluster
        self.loop = FrameLoop({
            "hello": self._h_hello,
            "ping": self._h_ping,
            "create_table": lambda state, p: _done(cluster.create_table(
                protocol.decode_schema(p["schema"]))),
            "table_size": lambda state, p: cluster.table_size(p["table"]),
            "tables": lambda state, p: cluster.tables(),
            **{name: self._tx_request(op) for name, op in _TX_OPS.items()},
            "tx.read_batch": self._h_tx_read_batch,
            "tx.commit": self._h_tx_commit,
            "tx.abort": self._h_tx_abort,
            "metrics": lambda state, p: self.metrics_view(
                p.get("window"), p.get("include_samples", True)),
            "flight_dump": self._h_flight_dump,
            "admin": self._h_admin,
            "faults.install": self._h_faults_install,
            "faults.clear": self._h_faults_clear,
            "faults.fired": self._h_faults_fired,
            "shutdown": self._h_shutdown,
        }, on_connect=lambda conn: _ConnState(conn, self.cluster.session()),
            on_drop=self._on_drop, on_error=self._on_error,
            registry=self.registry, flight=self.flight, name=name)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Bind the listener and start the loop on a background thread."""
        port = self.loop.start(self.host, self.port, self.unix_path)
        if self.unix_path is None:
            self.port = port
        if self.metrics_port is not None:
            self._metrics_http = _serve_metrics_http(self, self.host,
                                                     self.metrics_port)
            self.metrics_http_port = self._metrics_http.server_address[1]

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
        self.loop.stop_accepting()
        # drain: give in-flight transactions a chance to finish cleanly
        deadline = time.monotonic() + self.drain_timeout
        while time.monotonic() < deadline:
            if not sum(s.open_tx_count() for s in self.loop.peers()):
                break
            time.sleep(0.01)
        # abort the rest and kick the connections loose; every transaction
        # silently aborted here missed the drain window, which the
        # shutdown metrics snapshot must admit to
        states = self.loop.peers()
        drain_aborted = sum(state.abort_all() for state in states)
        if drain_aborted:
            self.registry.inc("rpc_drain_aborted_total", drain_aborted)
            self._open_txs.inc(-drain_aborted)
        if self._metrics_http is not None:
            self._metrics_http.shutdown()
            self._metrics_http.server_close()
            self._metrics_http = None
        for state in states:
            state.conn.close()  # the loop reads end-of-stream and drops it
        self.loop.halt()
        self._persist_observability()
        self.cluster.close()

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
        if self.metrics_path:
            data = self.metrics_view()
            data["meta"]["reason"] = "shutdown"
            try:
                with open(self.metrics_path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(data, indent=2, sort_keys=True))
            except OSError:  # pragma: no cover - disk full/permissions
                pass
        if self.flight.dump_dir and self.flight.ops():
            try:
                self.flight.dump(reason="shutdown")
            except OSError:  # pragma: no cover
                pass

    def metrics_view(self, window: Any = None,
                     include_samples: bool = True) -> dict[str, Any]:
        """The registry's snapshot under this server's meta, plus the
        windowed views over the last ``window`` seconds when one is
        given: the ``metrics`` RPC's reply and ``/metrics.json``'s body.
        A window that is not a positive, finite number of seconds is a
        :class:`~repro.rpc.protocol.ProtocolError`."""
        if window is not None:
            try:
                seconds = float(window)
            except (TypeError, ValueError):
                seconds = math.nan
            if not 0 < seconds < math.inf:
                raise protocol.ProtocolError(
                    f"window must be a positive number of seconds, "
                    f"not {window!r}")
        registry = self.cluster.metrics_registry()  # gauges refreshed
        data = export.snapshot(
            registry, include_samples=include_samples,
            meta={"server": self.name, "pid": os.getpid(),
                  "engine": self.cluster.engine_name})
        if window is not None:
            data["windows"] = export.windows(registry, seconds)
        return data

    # -- the loop's hooks --------------------------------------------------------

    def _on_drop(self, state: _ConnState) -> None:
        """A connection went away: so do its transactions."""
        aborted = state.abort_all()
        if aborted:
            self._open_txs.inc(-aborted)

    def _on_error(self, state: _ConnState, method: Any,
                  params: Mapping[str, Any]) -> None:
        """An error reply to a ``tx.*`` request ends its transaction
        (protocol rule): abort it and forget it."""
        handle = params.get("tx") if isinstance(params, Mapping) else None
        if isinstance(method, str) and method.startswith("tx.") \
                and isinstance(handle, int):
            self._abort_tx(state, handle)

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
                "engine": self.cluster.engine_name,
                "server": self.name, "pid": os.getpid()}

    def _h_ping(self, state: _ConnState,
                params: Mapping[str, Any]) -> str:
        delay = params.get("delay")
        if delay:  # test hook: simulate a slow server for timeout coverage
            park.park()
            time.sleep(float(delay))
        return "pong"

    def _h_shutdown(self, state: _ConnState,
                    params: Mapping[str, Any]) -> dict[str, Any]:
        # reply first, stop after: the loop sends this response, and a
        # timer stops the server once it has reached the client
        timer = threading.Timer(0.05, self.stop)
        timer.daemon = True
        timer.start()
        return {"stopping": True}

    def _h_flight_dump(self, state: _ConnState,
                       params: Mapping[str, Any]) -> Optional[str]:
        if not self.flight.ops():
            return None
        return self.flight.dump(reason=params.get("reason", "rpc_request"))

    def _h_admin(self, state: _ConnState, params: Mapping[str, Any]) -> Any:
        op = _ADMIN_OPS.get(params["op"])
        if op is None:
            raise protocol.ProtocolError(f"unknown admin op {params['op']!r}")
        return op(self.cluster, params)

    # -- handlers: transactions ------------------------------------------------

    def _tx_request(self, op: Callable[[Any, Mapping[str, Any]],
                                       dict[str, Any]]
                    ) -> Callable[..., dict[str, Any]]:
        """The handler of a ``tx.*`` request that runs ``op(tx, params)``
        on its transaction and replies with the fields ``op`` returns."""
        def serve(state: _ConnState,
                  params: Mapping[str, Any]) -> dict[str, Any]:
            entry = self._tx(state, params)
            return self._tx_reply(params, entry, **op(entry[0], params))
        return serve

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

    # -- handlers: fault injection -----------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> FaultInjector:
        """Install a plan process-wide, wired to this server's metrics,
        flight recorder and the cluster callbacks its ``action="call"``
        specs may name (the ``admin`` RPC's node ops)."""
        callbacks = {op: lambda node, fn=_ADMIN_OPS[op]: fn(self.cluster,
                                                            {"node": node})
                     for op in ("kill_node", "restart_node")}
        return faults.install(FaultInjector(
            plan, registry=self.registry, recorder=self.flight,
            callbacks=callbacks))

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


# -- metrics HTTP endpoint -----------------------------------------------------


def _serve_metrics_http(ndb: "NDBServer", host: str, port: int) -> Any:
    """Start serving ``ndb``'s registry over HTTP from a thread pool of
    its own, so a slow scrape never blocks the RPC loop: ``GET /metrics``
    (Prometheus text), ``GET /metrics.json`` (a sample-carrying snapshot
    with the windowed views of ``?window=N`` seconds, default 60 — what
    ``repro top`` polls) and ``GET /healthz``. Returns the
    ``ThreadingHTTPServer``; ``shutdown()`` and ``server_close()`` stop
    it."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
    from urllib.parse import parse_qs, urlparse

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            parsed = urlparse(self.path)
            if parsed.path in ("/", "/metrics"):
                body = export.prometheus_text(
                    ndb.cluster.metrics_registry())  # gauges fresh
                ctype = "text/plain; version=0.0.4"
            elif parsed.path == "/metrics.json":
                window = parse_qs(parsed.query).get("window", ["60"])[0]
                try:
                    data = ndb.metrics_view(window)
                except protocol.ProtocolError as exc:
                    self.send_error(400, str(exc))
                    return
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

    httpd = ThreadingHTTPServer((host, port), Handler)
    httpd.daemon_threads = True
    threading.Thread(target=httpd.serve_forever,
                     name=f"metrics-http-{ndb.name}", daemon=True).start()
    return httpd


# -- CLI entry point (python -m repro serve) -----------------------------------


#: the flags that set an :class:`NDBConfig` field: flag, field, type, default
_ENGINE_FLAGS = (
    ("--datanodes", "num_datanodes", int, 4),
    ("--replication", "replication", int, 2),
    ("--partitions-per-node", "partitions_per_node", int, 2),
    ("--lock-timeout", "lock_timeout", float, 1.2),
    ("--executor-threads", "executor_threads", int, 4),
    ("--network-delay", "network_delay", float, 0.0),
    ("--log-flush-delay", "log_flush_delay", float, 0.0),
)


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
    for flag, field, kind, default in _ENGINE_FLAGS:
        parser.add_argument(flag, dest=field, type=kind, default=default,
                            metavar=flag[2:].replace("-", "_").upper())
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
    config = NDBConfig(**{field: getattr(args, field)
                          for _flag, field, _kind, _default in _ENGINE_FLAGS})
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
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _signum, _frame: server.request_stop())
    ready = f"{READY_PREFIX} host={server.host} port={server.port} " \
            f"pid={os.getpid()}"
    if server.unix_path is not None:
        ready += f" unix={shlex.quote(server.unix_path)}"
    if server.metrics_port is not None:
        ready += f" metrics={server.metrics_http_port}"
    print(ready, flush=True)
    server.serve_until_stopped()
    print(f"REPRO-NDB-SERVE EXIT name={args.name}", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
