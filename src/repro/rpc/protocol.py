"""Wire protocol (version 4) for the DAL RPC subsystem.

Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by the UTF-8 JSON payload, handled strictly in order per
connection. JSON stays debuggable with ``tcpdump``/``socat`` and needs
no third-party codec. Measured on a 2-vCPU VM over AF_UNIX, a warm
4-row ``stat`` round trip (a 277-byte request, a 960-byte reply) spends
≈ 48 µs in the codec, counting both ends encoding and decoding; a hot
``ping`` round trip is 50–75 µs; and the server's whole CPU for the
``stat`` is 170–180 µs, or 150–173 µs with the server on a CPU of its
own. So the protocol is built to wait less, not to encode faster
(docs/performance.md)::

    {"id": 7, "method": "tx.read", "params": {...}, "trace": {"id": "41"}}
    {"id": 7, "ok": true,  "result": {...}, "trace": {...}}
    {"id": 7, "ok": false, "error": {"type": "DeadlockError", "message": "..."}}
    {"method": "tx.commit", "params": {"tx": 3}}    # no id: never answered

A transaction ships work the way the NDB API does — define locally, send
on execute (docs/deployment.md has the page):

* ``begin`` is not a request. The client numbers the transaction itself
  (``tx``, scoped to the connection); the first frame that reaches the
  server carries ``"begin": <hint>`` and its reply the ``coordinator``.
* ``insert``/``update``/``write``/``delete`` are buffered by the client
  and ride, in call order, as ``"writes": [[op, table, ...], ...]`` on
  the transaction's next reply-bearing request (a read, the commit),
  where the server applies them — takes their X locks — *before* that
  request's own operation. A buffered write's ``DuplicateKeyError``/
  ``NoSuchRowError`` is therefore the error of the request that carried
  it — at the latest the commit's, never after the commit applied.
* ``tx.read_batch`` executes everything defined with it: ``"scans":
  [[table, partition_values], ...]`` are read-committed pruned scans run
  after every lock of the keys is held, answered as ``"scans": [row
  set, ...]`` next to the rows; ``"commit": true`` (``execute(Commit)``)
  commits the read-only transaction before the reply, so no commit
  frame follows. The client never sends it for a transaction
  that called a write method, so a connection lost under it is a
  retryable abort, not an ambiguous commit.
* Commit and abort of any other transaction that called no write method
  are one-way frames; a transaction that sent nothing ends without a
  frame.
* **An error reply ends the transaction**: before answering ``ok:
  false`` to a ``tx.*`` request (and on a failing one-way frame) the
  server has aborted the transaction and forgotten its number, and the
  client marks its side aborted without another frame. No request can
  leave a transaction registered but orphaned.

Row sets cross as one column header plus positional value lists
(:func:`encode_rows` / :func:`decode_rows`), misses of a batched read as
``null``. ``bytes`` anywhere in a message travel as a tagged base64
object through the JSON encoder/decoder hooks; tuples become lists
(every DAL entry point accepts sequences). Also here, because both ends
need them: :func:`encode_schema` / :func:`decode_schema` for
``create_table``, and :class:`StatsCursor` /
:func:`apply_stats_delta` — every transaction reply carries the
:class:`AccessStats` diff the request produced *server-side* (scalar
counters plus the new :class:`AccessEvent` records) and the client folds
it into its own, so access-path verification and the performance model
see exactly what an embedded driver would.

The ``trace`` fields are optional (absent means unsampled). A
request-side envelope carries the client's ``trace_id``; the server then
binds a per-request trace so engine spans (``commit.participant``,
``lock_wait``, ``shard_fetch``, ``log_flush``) record under the client's
operation, and the reply's ``trace`` ships them back with the server's
``perf_counter`` window and identity, which
:func:`repro.metrics.tracing.graft_remote_call` aligns into the client
clock under the client's ``rpc.<method>`` span.

Errors travel as ``{"type": <class name>, "message": str}``. The client
re-raises the matching class from :mod:`repro.errors` (the whole
``ReproError`` tree is registered by introspection); unknown types
surface as :class:`repro.errors.RemoteCallError`.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any, Iterable, Mapping, Optional

from repro import errors as _errors
from repro.errors import ProtocolError, RemoteCallError
from repro.ndb.schema import TableSchema
from repro.ndb.stats import AccessEvent, AccessKind, AccessStats

#: bump when the frame or message layout changes incompatibly — or, as
#: for 3 and 4, when a request grows a field an older server would
#: silently ignore to the caller's harm (3: ``tx.ppis_batch``'s
#: ``"lock"`` — unlocked rows handed back; 4: ``tx.read_batch``'s
#: ``"commit"`` — a client believing it committed while the server holds
#: its locks — and ``delete`` among the buffered writes)
PROTOCOL_VERSION = 4

#: refuse frames larger than this (corrupt peer / length desync guard)
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")

_BYTES_TAG = "__bytes_b64__"


# -- framing -------------------------------------------------------------------


def _bytes_to_json(value: Any) -> dict[str, str]:
    """``json.dumps`` hook: the only non-JSON type a message may hold."""
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: base64.b64encode(bytes(value)).decode("ascii")}
    raise ProtocolError(f"cannot encode {type(value).__name__} value "
                        f"{value!r} for the wire")


def _bytes_from_json(obj: dict[str, Any]) -> Any:
    """``json.loads`` hook: turn a tagged base64 object back into bytes."""
    if len(obj) == 1 and _BYTES_TAG in obj:
        try:
            return base64.b64decode(obj[_BYTES_TAG], validate=True)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad base64 in frame: {exc}") from None
    return obj


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """Serialize one message to its on-wire bytes (length prefix + JSON)."""
    try:
        payload = json.dumps(message, separators=(",", ":"),
                             default=_bytes_to_json).encode("utf-8")
    except (TypeError, ValueError) as exc:  # e.g. a non-string mapping key
        raise ProtocolError(f"cannot encode message for the wire: {exc}"
                            ) from None
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds "
                            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    return _LEN.pack(len(payload)) + payload


def decode_length(header: bytes) -> int:
    """Parse the 4-byte length prefix; validates the advertised size."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer advertised a {length}-byte frame "
                            f"(max {MAX_FRAME_BYTES}); stream desynced?")
    return length


def decode_payload(payload: bytes) -> dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"),
                             object_hook=_bytes_from_json)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"frame payload is {type(message).__name__}, "
                            "expected an object")
    return message


# -- message constructors ------------------------------------------------------


def request(req_id: Optional[int], method: str,
            params: Optional[Mapping[str, Any]] = None,
            trace: Optional[Mapping[str, Any]] = None) -> dict[str, Any]:
    """A request; ``req_id=None`` makes it a one-way frame (no reply)."""
    message: dict[str, Any] = {"method": method, "params": params or {}}
    if req_id is not None:
        message["id"] = req_id
    if trace is not None:
        message["trace"] = trace
    return message


def ok(req_id: int, result: Any) -> dict[str, Any]:
    return {"id": req_id, "ok": True, "result": result}


def error(req_id: int, exc: BaseException) -> dict[str, Any]:
    return {"id": req_id, "ok": False,
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def _error_registry() -> dict[str, type]:
    """Every concrete ``ReproError`` subclass, by class name."""
    registry: dict[str, type] = {}
    stack = [_errors.ReproError]
    while stack:
        cls = stack.pop()
        registry[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    # common stdlib types a handler may legitimately raise
    for cls in (ValueError, KeyError, TypeError, RuntimeError,
                NotImplementedError):
        registry[cls.__name__] = cls
    return registry


_ERRORS_BY_NAME = _error_registry()


def raise_remote(err: Mapping[str, Any]) -> None:
    """Re-raise a remote error dict as the matching local exception."""
    name = err.get("type", "?")
    message = err.get("message", "")
    cls = _ERRORS_BY_NAME.get(name)
    if cls is None:
        raise RemoteCallError(f"{name}: {message}")
    raise cls(message)


# -- row-set codec -------------------------------------------------------------


def encode_rows(rows: Iterable[Optional[Mapping[str, Any]]]) -> dict[str, Any]:
    """A row set as ``{"columns": [...], "rows": [[...] | null, ...]}``.

    Every row of one result carries the same columns (a table's, or a
    projection's); the first row names them once.
    """
    columns: Optional[tuple[str, ...]] = None
    out: list[Optional[list[Any]]] = []
    for row in rows:
        if row is None:
            out.append(None)
            continue
        if columns is None:
            columns = tuple(row)
        try:
            values = [row[column] for column in columns]
        except KeyError:
            values = None
        if values is None or len(row) != len(columns):
            raise ProtocolError(f"row {dict(row)!r} does not have the "
                                f"columns {columns} of its row set")
        out.append(values)
    return {"columns": columns or (), "rows": out}


def decode_rows(raw: Any) -> list[Optional[dict[str, Any]]]:
    try:
        columns = raw["columns"]
        return [None if values is None
                else dict(zip(columns, values, strict=True))
                for values in raw["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed row set: {exc}") from None


# -- schema codec --------------------------------------------------------------


def encode_schema(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "columns": list(schema.columns),
        "primary_key": list(schema.primary_key),
        "partition_key": list(schema.partition_key or ()),
        "indexes": {name: list(cols)
                    for name, cols in schema.indexes.items()},
    }


def decode_schema(raw: Mapping[str, Any]) -> TableSchema:
    return TableSchema(
        name=raw["name"],
        columns=tuple(raw["columns"]),
        primary_key=tuple(raw["primary_key"]),
        partition_key=tuple(raw["partition_key"]) or None,
        indexes={name: tuple(cols)
                 for name, cols in raw.get("indexes", {}).items()},
    )


# -- access-stats codec --------------------------------------------------------


def encode_event(event: AccessEvent) -> dict[str, Any]:
    return {
        "kind": event.kind.value,
        "table": event.table,
        "partitions": list(event.partitions),
        "nodes": list(event.nodes),
        "coordinator": event.coordinator,
        "rows": event.rows,
        "locked": event.locked,
        "write": event.write,
        "node_groups": list(event.node_groups),
    }


def decode_event(raw: Mapping[str, Any]) -> AccessEvent:
    return AccessEvent(
        kind=AccessKind(raw["kind"]),
        table=raw["table"],
        partitions=tuple(raw["partitions"]),
        nodes=tuple(raw["nodes"]),
        coordinator=raw["coordinator"],
        rows=raw["rows"],
        locked=raw["locked"],
        write=raw["write"],
        node_groups=tuple(raw.get("node_groups", ())),
    )


class StatsCursor:
    """Server-side bookmark into one transaction's growing stats.

    :meth:`delta` returns everything recorded since the previous call —
    scalar counter diffs plus the new events — and advances the bookmark,
    so each RPC response ships only its own call's statistics.
    """

    _SCALARS = ("round_trips", "rows_read", "rows_written", "rows_locked",
                "remote_partition_hops", "partitions_touched")

    def __init__(self) -> None:
        self._scalars = dict.fromkeys(self._SCALARS, 0)
        self._by_kind: dict[str, int] = {}
        self._events_sent = 0

    def delta(self, stats: AccessStats) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name in self._SCALARS:
            value = getattr(stats, name)
            if value != self._scalars[name]:
                out[name] = value - self._scalars[name]
                self._scalars[name] = value
        by_kind = {}
        for kind, count in stats.by_kind.items():
            sent = self._by_kind.get(kind.value, 0)
            if count != sent:
                by_kind[kind.value] = count - sent
                self._by_kind[kind.value] = count
        if by_kind:
            out["by_kind"] = by_kind
        events = stats.events[self._events_sent:]
        if events:
            out["events"] = [encode_event(e) for e in events]
            self._events_sent = len(stats.events)
        return out


def apply_stats_delta(stats: AccessStats, delta: Mapping[str, Any]) -> None:
    """Fold a server-produced stats delta into a client-side AccessStats.

    Scalars are applied directly (not via :meth:`AccessStats.record`) so
    the client mirrors the server's counters exactly — ``rows_locked``,
    which only the engine's lock sites count, included.
    New events are appended and also announced to the active per-op trace,
    so a namenode tracing an operation over a remote DAL still sees its
    ``db.*`` round-trip events.
    """
    from repro.metrics.tracing import _ACTIVE, record_access

    for name in StatsCursor._SCALARS:
        if name in delta:
            setattr(stats, name, getattr(stats, name) + delta[name])
    for kind_value, count in delta.get("by_kind", {}).items():
        kind = AccessKind(kind_value)
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + count
    for raw in delta.get("events", ()):
        event = decode_event(raw)
        if _ACTIVE.bind[1] is not None:
            record_access(event.kind.value, event.table,
                          event.partitions, event.node_groups)
        if stats.keep_events:
            stats.events.append(event)
