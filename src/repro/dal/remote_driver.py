"""DAL driver that talks to an ndb-server process over the RPC protocol.

:class:`RemoteDriver` is the client half of the process-based deployment:
it implements the same :class:`repro.dal.driver.DALDriver` interface as
the embedded drivers, so namenode code cannot tell whether the engine
lives in-process or behind a socket. What changes under the hood:

* **connection pooling** — driver-level calls borrow a pooled connection
  per call; each transaction *pins* one connection for its lifetime
  (server-side transaction state is per-connection, and connection death
  is how abandoned transactions get aborted);
* **request timeouts** — every RPC has a socket-level deadline; a timed
  out connection is poisoned and never reused (a late response would
  desync request/response matching);
* **bounded reconnect with backoff** — dialing retries with exponential
  backoff (a supervisor may be respawning the server), and idempotent
  driver-level reads retry transparently across a reconnect;
* **failure mapping** — engine errors re-raise as their original classes
  (the wire carries the type name). Losing the connection *mid
  transaction* maps to :class:`TransactionAbortedError`, because the
  server aborts every transaction of a dead connection — so the standard
  whole-transaction retry loop is exactly as safe as embedded. Losing
  the connection *while a commit is in flight* maps to
  :class:`CommitAmbiguousError` and is never transparently retried: the
  commit may have applied;
* **define locally, ship on execute** (since protocol version 2,
  :mod:`repro.rpc.protocol`) — a request is sent only when the caller
  needs its reply: ``begin`` rides the transaction's first request,
  ``insert``/``update``/``write``/``delete`` are buffered here and ride
  the next reply-bearing one (so their X locks are taken and their
  ``DuplicateKeyError``/``NoSuchRowError`` surfaces there — at the
  latest at the commit — not at the write call as embedded), a
  ``read_batch`` carries the scans and the read-only commit its caller
  hands it (version 4: ``execute(Commit)`` — such a transaction is one
  request, and losing the connection under it is a retryable abort,
  since there is nothing a commit could have applied), and commit/abort
  of any other transaction that called no write method are one-way
  frames. An error reply ends the transaction on both sides;
* **client-side predicates** — predicate callables cannot cross the
  wire; scans fetch matching rows by index/partition server-side and
  apply the Python predicate locally (projection then happens after the
  predicate, preserving embedded semantics).

Access statistics stay exact: every transaction RPC response carries the
:class:`AccessEvent` records produced server-side (and the row locks
taken), and the client records them into ``tx.stats`` through
:meth:`AccessStats.record` — access-path verification and the
performance model see embedded-identical numbers.

Metrics: what the client side of the wire produces — the per-phase
``rpc_request_seconds{phase,method}`` of traced calls,
``rpc_client_reconnects_total`` and its sessions'
``ndb_tx_retries_total{reason}`` — lives in :attr:`RemoteDriver.metrics`.
The engine's ``ndb_*`` families and the server's ``rpc_*`` live in the
server process (:meth:`RemoteDriver.metrics_snapshot` fetches them).
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Mapping, Optional, Sequence, TypeVar

from repro.dal.driver import DALDriver
from repro.errors import (
    CommitAmbiguousError,
    ConnectionClosedError,
    ProtocolError,
    RequestTimeoutError,
    RPCError,
    TransactionAbortedError,
    TransactionError,
)
from repro.faults import fault_point
from repro.faults.plan import FaultPlan
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import _ACTIVE, add_event, graft_remote_call, span
from repro.ndb.locks import LockMode
from repro.ndb.schema import TableSchema
from repro.ndb.session import run_in_session
from repro.ndb.stats import AccessStats
from repro.ndb.transaction import Predicate, TxState
from repro.rpc import protocol
from repro.rpc.conn import ClientConn, dial
from repro.util.retry import RetryPolicy

T = TypeVar("T")

_CONN_ERRORS = (ConnectionClosedError, RequestTimeoutError)
#: after these a connection's stream position is unknown: never pool it
_CONN_POISON = _CONN_ERRORS + (ProtocolError,)

#: the four client-observed phases every traced RPC decomposes into
RPC_PHASES = ("send", "wire", "server_queue", "engine")

#: the engine's gauges (:meth:`repro.ndb.NDBCluster.metrics_registry`),
#: readable only through the server's snapshot
_ENGINE_GAUGES = ("ndb_lock_", "ndb_group_commit_")

#: idle connections a driver keeps for reuse; more are closed on checkin
POOL_SIZE = 16
#: cap of one reconnect backoff, in seconds
RECONNECT_BACKOFF_MAX = 2.0


class RemoteTransaction:
    """Client-side twin of one server-side transaction.

    Satisfies :class:`repro.dal.driver.DALTransaction` structurally. Not
    thread safe; owned by one caller thread, like the native
    :class:`repro.ndb.transaction.Transaction`. The server learns of it
    with its first request; until then it is a connection, a number and
    a list of buffered writes.
    """

    def __init__(self, driver: "RemoteDriver", conn: ClientConn,
                 hint: Optional[tuple[str, Mapping[str, Any]]]) -> None:
        self._driver = driver
        self._conn: Optional[ClientConn] = conn
        self._handle = conn.next_tx()
        self._hint = hint
        #: known once the first reply is in
        self.coordinator = -1
        self.state = TxState.ACTIVE
        self.stats = AccessStats()
        self._begun = False   # has the server seen a request of ours?
        self._wrote = False   # was any write method called?
        #: write-method calls not yet shipped, in call order
        self._buffered: list[list[Any]] = []

    # -- plumbing --------------------------------------------------------------

    def _check_active(self) -> None:
        if self.state is not TxState.ACTIVE:
            raise TransactionAbortedError(
                f"remote tx {self._handle} already {self.state.value}")

    def _request(self, method: str, params: dict[str, Any],
                 **labels: object) -> Any:
        """One reply-bearing request, carrying whatever is pending: the
        begin marker on the first one, and every buffered write. Raises
        what the transport or the server raises, with this side already
        ended when the error reply (or the lost connection) ended the
        server's. ``labels`` go on the traced call's span."""
        params["tx"] = self._handle
        if not self._begun:
            params["begin"] = self._hint
        carried = len(self._buffered)
        if carried:
            params["writes"], self._buffered = self._buffered, []
        try:
            result = self._driver._traced_call(self._conn, method, params,
                                               writes=carried, **labels)
            protocol.apply_stats_delta(self.stats, result["stats"])
        except Exception as exc:
            # a dead connection takes its transactions with it; a live
            # one answered with an error, and an error reply ends the
            # transaction server-side (protocol rule); a malformed reply
            # drops the connection, which aborts it server-side
            self._end(TxState.ABORTED,
                      reusable=not isinstance(exc, _CONN_POISON))
            raise
        self._begun = True
        self.coordinator = result.get("coordinator", self.coordinator)
        return result

    def _call(self, method: str, params: dict[str, Any],
              **labels: object) -> Any:
        """A request inside the transaction.

        A dead connection means the server aborted this transaction (and
        released its locks), so connection loss surfaces as
        :class:`TransactionAbortedError` — safe to retry the whole
        transaction callback, exactly like an engine-side abort.
        """
        self._check_active()
        try:
            return self._request(method, params, **labels)
        except _CONN_ERRORS as exc:
            raise TransactionAbortedError(
                f"connection lost mid-transaction ({method}): {exc}"
            ) from exc

    def _buffer(self, op: str, *args: Any) -> None:
        self._check_active()
        self._wrote = True
        self._buffered.append([op, *args])
        # nothing is sent, so there is no rpc span: a traced client sees
        # *that* the write was issued, as a zero-length event
        add_event("rpc.tx." + op, buffered=True)

    def _end(self, state: TxState, reusable: bool) -> None:
        self.state = state
        conn, self._conn = self._conn, None
        if conn is not None:
            self._driver._checkin(conn, reusable=reusable)

    # -- reads -----------------------------------------------------------------

    def read(self, table: str, key: Any,
             lock: LockMode = LockMode.READ_COMMITTED
             ) -> Optional[dict[str, Any]]:
        return self._call("tx.read", {
            "table": table, "key": key, "lock": lock.name})["row"]

    def read_batch(self, table: str, keys: Sequence[Any],
                   lock: LockMode = LockMode.READ_COMMITTED,
                   locks: Optional[Sequence[LockMode]] = None,
                   *,
                   scans: Optional[Sequence[tuple[str, Mapping[str, Any]]]] = None,
                   commit: bool = False) -> Any:
        params = {"table": table, "keys": list(keys), "lock": lock.name}
        if locks is not None:
            params["locks"] = [m.name for m in locks]
        labels = {}
        if scans is not None:
            params["scans"] = [[t, dict(values)] for t, values in scans]
            labels["scans"] = len(scans)
        if commit:
            # nothing buffered, nothing to apply: whatever happens to this
            # request, the transaction ends with nothing changed — so a
            # lost connection stays the retryable abort of any read
            if self._wrote:
                raise TransactionError(
                    f"remote tx {self._handle}: read_batch(commit=True) "
                    "ends a read-only transaction; this one called a "
                    "write method")
            params["commit"] = True
            labels["commit"] = "true"
        result = self._call("tx.read_batch", params, **labels)
        if commit:
            self._end(TxState.COMMITTED, reusable=True)
        rows = protocol.decode_rows(result)
        if scans is None:
            return rows
        return rows, [protocol.decode_rows(found)
                      for found in result["scans"]]

    def ppis(self, table: str, partition_values: Mapping[str, Any],
             predicate: Predicate = None,
             lock: LockMode = LockMode.READ_COMMITTED,
             columns: Optional[Sequence[str]] = None) -> list[dict[str, Any]]:
        # with a client-side predicate the server must send full rows;
        # projection happens after filtering, as embedded does
        request_columns = None if predicate is not None else columns
        rows = protocol.decode_rows(self._call("tx.ppis", {
            "table": table, "partition_values": dict(partition_values),
            "lock": lock.name,
            "columns": list(request_columns) if request_columns else None}))
        if predicate is not None:
            rows = [row for row in rows if predicate(row)]
            if columns is not None:
                rows = [{col: row[col] for col in columns} for row in rows]
        return rows

    def ppis_batch(self, scans: Sequence[tuple[str, Mapping[str, Any]]],
                   lock: LockMode = LockMode.READ_COMMITTED,
                   ) -> list[list[dict[str, Any]]]:
        if not scans:  # no operation defined: nothing to execute
            self._check_active()
            return []
        result = self._call("tx.ppis_batch", {
            "scans": [[table, dict(values)] for table, values in scans],
            "lock": lock.name})
        return [protocol.decode_rows(rows) for rows in result["scans"]]

    def index_scan(self, table: str, index_name: str, values: Sequence[Any],
                   predicate: Predicate = None,
                   lock: LockMode = LockMode.READ_COMMITTED
                   ) -> list[dict[str, Any]]:
        rows = protocol.decode_rows(self._call("tx.index_scan", {
            "table": table, "index": index_name, "values": list(values),
            "lock": lock.name}))
        if predicate is not None:
            rows = [row for row in rows if predicate(row)]
        return rows

    def full_scan(self, table: str,
                  predicate: Predicate = None) -> list[dict[str, Any]]:
        rows = protocol.decode_rows(
            self._call("tx.full_scan", {"table": table}))
        if predicate is not None:
            rows = [row for row in rows if predicate(row)]
        return rows

    # -- writes ----------------------------------------------------------------

    def insert(self, table: str, row: Mapping[str, Any]) -> None:
        self._buffer("insert", table, dict(row))

    def update(self, table: str, key: Any,
               changes: Mapping[str, Any]) -> None:
        self._buffer("update", table, key, dict(changes))

    def write(self, table: str, row: Mapping[str, Any]) -> None:
        self._buffer("write", table, dict(row))

    def delete(self, table: str, key: Any, must_exist: bool = True) -> None:
        self._buffer("delete", table, key, must_exist)

    # -- transaction end -------------------------------------------------------

    def _notify_end(self, method: str) -> None:
        """End a transaction that wrote nothing with a one-way frame —
        or, if the server never heard of it, with no frame at all."""
        add_event("rpc." + method, one_way=True)
        if self._begun and not self._conn.closed:
            try:
                self._conn.notify(method, {"tx": self._handle})
            except RPCError:
                pass  # the dead connection ended it server-side

    def commit(self) -> None:
        self._check_active()
        if not self._wrote:
            # every outcome of a read-only commit is the same to the
            # caller, and all its reads happened while all its locks
            # were held: nothing to wait for
            self._notify_end("tx.commit")
            self._end(TxState.COMMITTED, reusable=True)
            return
        with span("commit"):
            try:
                # carries the writes still buffered; the commit round
                # records its own access events (write-batch flush +
                # commit) server-side
                self._request("tx.commit", {})
            except _CONN_ERRORS as exc:
                # the commit request may have been applied before the
                # connection died: ambiguous by construction, never
                # transparently retried (the caller must re-read)
                raise CommitAmbiguousError(
                    f"connection lost while commit of remote tx "
                    f"{self._handle} was in flight: {exc}") from exc
        self._end(TxState.COMMITTED, reusable=True)

    def abort(self) -> None:
        if self.state is not TxState.ACTIVE:
            return
        if not self._wrote:
            self._notify_end("tx.abort")
        elif self._begun and not self._conn.closed:
            try:
                self._conn.call("tx.abort", {"tx": self._handle})
            except Exception:  # noqa: BLE001 - abort is best effort
                pass
        self._end(TxState.ABORTED, reusable=True)

    def __enter__(self) -> "RemoteTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.state is TxState.ACTIVE:
            self.commit()
        elif self.state is TxState.ACTIVE:
            self.abort()


class RemoteSession:
    """Per-client-thread session against a remote server.

    Mirrors :class:`repro.ndb.session.Session`: hands out transactions,
    accumulates their statistics, and ``run`` retries the whole callback
    on lock conflicts *and* on mid-transaction connection loss (the
    server aborted the transaction, so a retry is safe).
    :class:`CommitAmbiguousError` deliberately escapes the retry loop.
    """

    def __init__(self, driver: "RemoteDriver") -> None:
        self._driver = driver
        self.metrics = driver.metrics
        self.stats = AccessStats()
        self.retries_used = 0

    def begin(self, hint: Optional[tuple[str, Mapping[str, Any]]] = None
              ) -> RemoteTransaction:
        # pinned to one connection; nothing is sent until a reply is needed
        return RemoteTransaction(self._driver, self._driver._checkout(), hint)

    def run(self, fn: Callable[[RemoteTransaction], T],
            hint: Optional[tuple[str, Mapping[str, Any]]] = None,
            retries: int = 5) -> T:
        # the exact same loop as the embedded session: the shared policy
        # retries abort-class errors and refuses CommitAmbiguousError
        return run_in_session(self, fn, hint=hint, retries=retries)

    def reset_stats(self) -> AccessStats:
        stats, self.stats = self.stats, AccessStats()
        return stats


class RemoteDriver(DALDriver):
    """DAL driver speaking the RPC protocol to one ndb-server process."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 unix_path: Optional[str] = None,
                 timeout: Optional[float] = 30.0,
                 connect_timeout: float = 5.0,
                 max_reconnect_attempts: int = 5,
                 reconnect_backoff: float = 0.05,
                 client_name: str = "remote-dal") -> None:
        self.host = host
        self.port = port
        #: connect over AF_UNIX instead of TCP when set (same-host
        #: deployments skip the loopback TCP stack entirely)
        self.unix_path = unix_path
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.max_reconnect_attempts = max_reconnect_attempts
        self.client_name = client_name
        #: the shared jittered policy drives every reconnect cycle
        self.dial_policy = RetryPolicy(
            max_attempts=max(1, max_reconnect_attempts),
            base_delay=reconnect_backoff, max_delay=RECONNECT_BACKOFF_MAX)
        self._dial_rng = random.Random()  # guarded_by: GIL
        #: what the client side of the wire measures (module docstring)
        self.metrics = MetricsRegistry()
        #: ``rpc_request_seconds{phase,method}`` handles by method
        # guarded_by: GIL -- racing fillers store the registry's own metrics
        self._phase_hists: dict[str, dict[str, Any]] = {}
        #: lifetime count of redial attempts after connection loss (the
        #: registry counter ``rpc_client_reconnects_total`` mirrors it)
        self.reconnects = 0  # guarded_by: GIL
        self._dialed_once = False  # guarded_by: GIL
        self._pool: list[ClientConn] = []  # guarded_by: _pool_lock
        self._pool_lock = threading.Lock()
        self._server_info: Optional[dict[str, Any]] = None  # guarded_by: GIL
        self._closed = False  # guarded_by: GIL

    # -- connection pool -------------------------------------------------------

    def _dial(self) -> ClientConn:
        """One connection attempt cycle: the shared jittered policy
        (full-jitter exponential backoff, a supervisor may be respawning
        the server), bounded by attempts."""
        last_exc: Optional[Exception] = None
        for attempt in self.dial_policy.attempts(rng=self._dial_rng):
            if attempt or self._dialed_once:
                # every dial after the first-ever connection (or after a
                # failed attempt) is a reconnect
                self.reconnects += 1
                self.metrics.inc("rpc_client_reconnects_total")
            if fault_point("dal.remote.dial", attempt=attempt):
                last_exc = ConnectionClosedError("injected dial failure")
                continue
            try:
                sock = dial(self.host, self.port, unix_path=self.unix_path,
                            timeout=self.timeout,
                            connect_timeout=self.connect_timeout)
            except OSError as exc:
                last_exc = exc
                continue
            conn = ClientConn(sock, timeout=self.timeout)
            try:
                info = conn.call("hello", {
                    "protocol": protocol.PROTOCOL_VERSION,
                    "client": self.client_name})
            except Exception:
                conn.close()
                raise
            self._server_info = info
            self._dialed_once = True
            return conn
        where = (self.unix_path if self.unix_path is not None
                 else f"{self.host}:{self.port}")
        raise ConnectionClosedError(
            f"cannot reach server at {where} after "
            f"{self.max_reconnect_attempts} attempts: {last_exc}")

    def _checkout(self) -> ClientConn:
        while True:
            with self._pool_lock:
                if not self._pool:
                    break
                conn = self._pool.pop()
            if conn.closed:
                continue
            # injected pool poisoning: the checked-out connection is
            # already dead, forcing a redial storm
            if fault_point("dal.remote.pool.checkout"):
                conn.close()
                continue
            return conn
        return self._dial()

    def _checkin(self, conn: ClientConn, reusable: bool = True) -> None:
        if not reusable or conn.closed or self._closed:
            conn.close()
            return
        with self._pool_lock:
            if len(self._pool) < POOL_SIZE:
                self._pool.append(conn)
                return
        conn.close()

    def close(self) -> None:
        self._closed = True
        with self._pool_lock:
            conns, self._pool = self._pool, []
        for conn in conns:
            conn.close()

    def __enter__(self) -> "RemoteDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- driver-level RPCs -----------------------------------------------------

    def _call(self, method: str, params: Optional[dict[str, Any]] = None,
              idempotent: bool = False) -> Any:
        """Borrow a pooled connection for one call.

        Idempotent reads retry across a reconnect (each retry cycle
        itself dials with backoff); non-idempotent calls fail fast on
        connection loss — the caller cannot know whether they applied.
        """
        attempts = self.max_reconnect_attempts if idempotent else 1
        last_exc: Exception = ConnectionClosedError("no attempts made")
        for _attempt in range(max(1, attempts)):
            conn = self._checkout()
            try:
                result = self._traced_call(conn, method, dict(params or {}))
            except _CONN_ERRORS as exc:
                last_exc = exc
                continue  # conn is closed; next checkout redials
            except Exception as exc:
                # an error reply leaves the stream in sync: pool the conn
                self._checkin(conn,
                              reusable=not isinstance(exc, _CONN_POISON))
                raise
            self._checkin(conn)
            return result
        raise last_exc

    def _traced_call(self, conn: ClientConn, method: str,
                     params: Optional[dict[str, Any]] = None,
                     **labels: object) -> Any:
        """One RPC with wire-level trace propagation.

        Untraced callers (no trace bound to this thread — sampling off or
        sampled out) pay nothing beyond a thread-local read: the request
        carries no trace envelope and the server does no span work. Traced
        callers get an ``rpc.<method>`` span (labelled with ``labels``)
        whose children decompose the round trip into send / wire /
        server-queue / engine (the server's clock-aligned span tree grafted
        in the middle), and the phase durations land in this driver's
        ``rpc_request_seconds{phase,method}`` histograms.
        """
        trace, stack, _link = _ACTIVE.bind
        if stack is None:
            return conn.call(method, params)
        with span("rpc." + method, **labels) as rpc_span:
            result, payload, t_send, t_sent, t_recv = conn.call_traced(
                method, params, trace={"id": trace.trace_id})
            if payload is not None:
                phases = graft_remote_call(rpc_span, payload,
                                           t_send, t_sent, t_recv)
                hists = self._phase_hists.get(method)
                if hists is None:
                    hists = self._phase_hists[method] = {
                        phase: self.metrics.histogram(
                            "rpc_request_seconds", phase=phase, method=method)
                        for phase in RPC_PHASES}
                for phase, seconds in phases.items():
                    hists[phase].observe(seconds)
        return result

    # -- DALDriver interface ---------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self._call("create_table",
                   {"schema": protocol.encode_schema(schema)})

    def session(self) -> RemoteSession:
        return RemoteSession(self)

    def table_size(self, table: str) -> int:
        return self._call("table_size", {"table": table}, idempotent=True)

    @property
    def engine_name(self) -> str:
        if self._server_info is None:
            self._call("ping", idempotent=True)  # dials + hellos
        info = self._server_info or {}
        where = (self.unix_path if self.unix_path is not None
                 else f"{self.host}:{self.port}")
        return (f"remote({where}, "
                f"server={info.get('server', '?')}, "
                f"engine={info.get('engine', '?')})")

    @property
    def round_trips_wait(self) -> bool:
        return True  # every reply crosses a socket from another process

    def metrics_registry(self) -> MetricsRegistry:
        """This driver's registry, with the engine's gauges copied out of
        the server's snapshot; a server that cannot be reached leaves
        them at what they last read."""
        try:
            served = self.metrics_snapshot(include_samples=False)
        except RPCError:
            served = {}  # a dead server must not take the metrics down
        for gauge in served.get("gauges", ()):
            if gauge["name"].startswith(_ENGINE_GAUGES):
                self.metrics.set_gauge(gauge["name"], gauge["value"],
                                       **gauge.get("labels", {}))
        return self.metrics

    # -- admin / observability surface -----------------------------------------

    def ping(self, delay: float = 0.0) -> str:
        return self._call("ping", {"delay": delay} if delay else {})

    def tables(self) -> list[str]:
        return self._call("tables", idempotent=True)

    def admin(self, op: str, *, idempotent: bool = False,
              **params: Any) -> Any:
        return self._call("admin", {"op": op, **params},
                          idempotent=idempotent)

    def kill_node(self, node: int) -> None:
        self.admin("kill_node", node=node, idempotent=True)

    def restart_node(self, node: int) -> None:
        self.admin("restart_node", node=node, idempotent=True)

    def complete_epoch(self) -> int:
        return self.admin("complete_epoch")

    def local_checkpoint(self) -> None:
        self.admin("local_checkpoint")

    def crash_and_recover(self) -> int:
        return self.admin("crash_and_recover")

    def is_available(self) -> bool:
        return self.admin("is_available", idempotent=True)

    def live_nodes(self) -> list[int]:
        return self.admin("live_nodes", idempotent=True)

    def partition_sizes(self, table: str) -> dict[int, int]:
        raw = self.admin("partition_sizes", table=table, idempotent=True)
        return {int(pid): size for pid, size in raw.items()}

    def replica_snapshots(self, table: str) -> dict[int, list[list[dict]]]:
        raw = self.admin("replica_snapshots", table=table, idempotent=True)
        return {int(pid): [protocol.decode_rows(replica)
                           for replica in replicas]
                for pid, replicas in raw.items()}

    def install_faults(self, plan: FaultPlan) -> dict:
        """Ship a fault plan to the server process (chaos runs install
        plans into supervised workers over the normal protocol)."""
        return self._call("faults.install", {"plan": plan.to_dict()})

    def clear_faults(self) -> dict:
        return self._call("faults.clear", idempotent=True)

    def fired_faults(self) -> dict:
        """The server-side firing log (replay-determinism evidence)."""
        return self._call("faults.fired", idempotent=True)

    def metrics_snapshot(self, include_samples: bool = True,
                         window: Optional[float] = None) -> dict:
        """Server metrics snapshot; ``window`` seconds adds a
        ``windows`` section (windowed rates and percentiles) — the feed
        ``python -m repro top`` polls."""
        params: dict[str, Any] = {"include_samples": include_samples}
        if window is not None:
            params["window"] = window
        return self._call("metrics", params, idempotent=True)

    def flight_dump(self, reason: str = "rpc_request") -> Optional[str]:
        return self._call("flight_dump", {"reason": reason}, idempotent=True)

    def shutdown_server(self) -> None:
        """Ask the server to shut down gracefully (drains, then exits)."""
        self._call("shutdown")
        self.close()
