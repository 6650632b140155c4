"""RPC subsystem tests: wire-protocol units plus in-thread server
integration.

Everything here runs the real socket stack (``NDBServer`` accept loop,
``RemoteDriver`` pool) inside one process; the subprocess deployment —
supervisor spawn, SIGTERM, kill -9 — is covered by
``test_rpc_process.py``.
"""

import gc
import socket
import threading
import time
import warnings
from dataclasses import asdict

import pytest

from repro.dal import RemoteDriver
from repro.errors import (
    CommitAmbiguousError,
    ConnectionClosedError,
    DuplicateKeyError,
    NoSuchRowError,
    NoSuchTableError,
    ProtocolError,
    RemoteCallError,
    RequestTimeoutError,
    ServerShutdownError,
    TransactionAbortedError,
)
from repro.metrics import export
from repro.ndb import AccessKind, LockMode, NDBConfig, TableSchema
from repro.ndb.stats import AccessEvent, AccessStats
from repro.rpc import ClientConn, FrameConn, NDBServer, dial, protocol

KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))

CONFIG = NDBConfig(num_datanodes=4, replication=2, lock_timeout=0.5)


# -- protocol units ------------------------------------------------------------


def test_frame_roundtrip():
    message = {"id": 7, "method": "ping", "params": {"x": [1, 2]}}
    data = protocol.encode_frame(message)
    length = protocol.decode_length(data[:4])
    assert length == len(data) - 4
    assert protocol.decode_payload(data[4:]) == message


def test_frame_length_limit():
    huge = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        protocol.decode_length(huge)


def _over_the_wire(message):
    return protocol.decode_payload(protocol.encode_frame(message)[4:])


def test_value_codec_bytes_and_tuples():
    rows = [{"k": 1, "blob": b"\x00\xffbinary", "pk": (1, "a")}, None,
            {"k": 2, "blob": b"", "pk": (2, "b")}]
    message = _over_the_wire({
        "id": 1, "params": {"key": (1, "a"), "hint": ("t", {"k": b"\x01"})},
        "result": protocol.encode_rows(rows)})
    assert message["params"]["key"] == [1, "a"]  # tuples travel as lists
    assert message["params"]["hint"] == ["t", {"k": b"\x01"}]
    assert message["result"]["columns"] == ["k", "blob", "pk"]  # named once
    assert protocol.decode_rows(message["result"]) == [
        {"k": 1, "blob": b"\x00\xffbinary", "pk": [1, "a"]}, None,
        {"k": 2, "blob": b"", "pk": [2, "b"]}]
    # a projection is just a narrower header; an empty set has none
    projected = _over_the_wire(protocol.encode_rows([{"k": 7}, {"k": 8}]))
    assert protocol.decode_rows(projected) == [{"k": 7}, {"k": 8}]
    assert protocol.decode_rows(
        _over_the_wire(protocol.encode_rows([]))) == []


def test_codec_rejects_hostile_input():
    # a row that does not have its row set's columns, on either side: a
    # silent zip() truncation would hand the caller a wrong row
    with pytest.raises(ProtocolError, match="columns"):
        protocol.encode_rows([{"k": 1, "v": 2}, {"k": 1}])
    with pytest.raises(ProtocolError, match="columns"):
        protocol.encode_rows([{"k": 1, "v": 2}, {"k": 1, "w": 2}])
    for rows in ([[1]], [[1, 2, 3]]):
        with pytest.raises(ProtocolError, match="row set"):
            protocol.decode_rows({"columns": ["k", "v"], "rows": rows})
    for garbage in (None, [], {"rows": []}, {"columns": ["k"], "rows": 5}):
        with pytest.raises(ProtocolError):
            protocol.decode_rows(garbage)
    with pytest.raises(ProtocolError, match="expected an object"):
        protocol.decode_payload(b"[1, 2]")
    with pytest.raises(ProtocolError, match="undecodable"):
        protocol.decode_payload(b"\xff{")
    with pytest.raises(ProtocolError, match="undecodable"):
        protocol.decode_payload(b"[" * 100_000)
    with pytest.raises(ProtocolError, match="base64"):
        protocol.decode_payload(b'{"x": {"__bytes_b64__": "@@@"}}')
    with pytest.raises(ProtocolError, match="cannot encode"):
        protocol.encode_frame({"value": object()})
    with pytest.raises(ProtocolError, match="cannot encode"):
        protocol.encode_frame({"row": {(1, 2): "tuple key"}})


def _one_byte_at_a_time(data):
    return [data[i:i + 1] for i in range(len(data))]


@pytest.mark.parametrize("segments", [
    _one_byte_at_a_time,
    lambda data: [data],  # both frames in one segment
], ids=["one-byte-at-a-time", "two-frames-in-one-segment"])
def test_a_frame_is_read_however_its_bytes_arrive(segments):
    """``FrameConn.recv`` cuts frames out of whatever the socket hands
    over: a frame split into single bytes, or two frames in one read."""
    ours, theirs = socket.socketpair()
    conn = FrameConn(ours)
    replies = [{"id": 1, "ok": True, "result": "pong"},
               {"id": 2, "ok": True, "result": [1, "two"]}]
    data = b"".join(protocol.encode_frame(reply) for reply in replies)
    sender = threading.Thread(
        target=lambda: [theirs.sendall(part) for part in segments(data)])
    sender.start()
    try:
        assert [conn.recv(), conn.recv()] == replies
    finally:
        sender.join()
        conn.close()
        theirs.close()


def test_a_timeout_mid_frame_poisons_the_connection():
    """Half a frame, then silence: the read times out as a
    ``RequestTimeoutError`` and the connection is closed (a late rest of
    the frame would desynchronize the stream)."""
    ours, theirs = socket.socketpair()
    ours.settimeout(0.1)
    conn = FrameConn(ours)
    try:
        theirs.sendall(protocol.encode_frame({"id": 1, "ok": True})[:6])
        with pytest.raises(RequestTimeoutError):
            conn.recv()
        assert conn.closed
    finally:
        conn.close()
        theirs.close()


def test_oversized_frame_is_refused_before_it_is_sent(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
        protocol.encode_frame({"blob": "x" * 64})


def test_typed_error_roundtrip():
    err = protocol.error(3, DuplicateKeyError("kv:(1,)"))["error"]
    with pytest.raises(DuplicateKeyError, match="kv"):
        protocol.raise_remote(err)


def test_unknown_error_type_degrades_to_remote_call_error():
    with pytest.raises(RemoteCallError, match="exotic"):
        protocol.raise_remote({"type": "SomeExoticError",
                               "message": "exotic failure"})


def test_stats_delta_ships_events_and_rows_locked():
    """A v5 reply's ``stats`` is ``[rows_locked, [event, ...]]``; the
    client appends the events, and every other total is computed from
    them."""
    stats = AccessStats()
    cursor = protocol.StatsCursor()
    stats.record(AccessEvent(kind=AccessKind.PK, table="kv",
                             partitions=(1,), nodes=(0, 2), coordinator=0,
                             rows=1, locked=True, write=False,
                             node_groups=(0,)))
    stats.rows_locked += 1
    first = _over_the_wire({"stats": cursor.delta(stats)})["stats"]
    assert first == [1, [["pk", "kv", [1], [0, 2], 0, 1, True, False, [0]]]]

    # nothing new happened: the next delta is empty
    assert cursor.delta(stats) == [0, []]

    mirror = AccessStats()
    protocol.apply_stats_delta(mirror, first)
    assert mirror == stats
    assert mirror.remote_partition_hops == 1
    assert mirror.count(AccessKind.PK) == 1
    for garbage in (None, [0], [0, [["no_such_kind", "kv", [], [], 0, 0,
                                     False, False, []]]], [0, [[1, 2]]],
                    ["x", []]):
        with pytest.raises(ProtocolError, match="stats"):
            protocol.apply_stats_delta(AccessStats(), garbage)


# -- in-thread server integration ----------------------------------------------


@pytest.fixture
def server():
    with NDBServer(config=CONFIG) as srv:
        yield srv


@pytest.fixture
def driver(server):
    drv = RemoteDriver(server.host, server.port, timeout=5.0,
                       reconnect_backoff=0.01)
    drv.create_table(KV)
    yield drv
    drv.close()


def _fill(driver, n=8):
    session = driver.session()

    def seed(tx):
        for i in range(n):
            tx.insert("kv", {"k": i, "v": i * 10})

    session.run(seed)
    return session


def test_hello_rejects_protocol_mismatch(server):
    conn = ClientConn(dial(server.host, server.port, timeout=5.0))
    try:
        with pytest.raises(ProtocolError, match="protocol"):
            conn.call("hello", {"protocol": 99})
    finally:
        conn.close()


def test_a_deeply_nested_frame_drops_only_its_connection(server, driver):
    """Nesting past the decoder's recursion limit is the peer's garbage,
    not the loop's crash: that connection goes, the others are served."""
    sock = dial(server.host, server.port, timeout=5.0)
    try:
        payload = b"[" * 100_000
        sock.sendall(len(payload).to_bytes(4, "big") + payload)
        assert sock.recv(1) == b""  # the server closed it
    finally:
        sock.close()
    assert driver.ping() == "pong"


def test_request_timeout_poisons_only_that_connection(server):
    drv = RemoteDriver(server.host, server.port, timeout=0.4,
                       reconnect_backoff=0.01)
    try:
        with pytest.raises(RequestTimeoutError):
            drv.ping(delay=2.0)
        assert drv.ping() == "pong"  # fresh conn; the pool did not jam
    finally:
        drv.close()


def test_read_your_own_writes_and_locks(driver):
    _fill(driver)
    session = driver.session()

    def fn(tx):
        row = tx.read("kv", (3,), lock=LockMode.EXCLUSIVE)
        tx.update("kv", (3,), {"v": row["v"] + 1})
        return tx.read("kv", (3,))["v"]

    assert session.run(fn) == 31
    assert session.stats.rows_locked >= 1


# -- protocol v2: define locally, ship on execute ------------------------------


def _requests(server):
    """method -> frames the server has dispatched (one-way ones included)."""
    return {dict(c.labels)["method"]: int(c.value)
            for c in server.registry.counters()
            if c.name == "rpc_requests_total"}


def _open_txs(server):
    return server.registry.get_gauge("rpc_open_txs")


def _wait_until(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_version_1_hello_is_refused(server):
    conn = ClientConn(dial(server.host, server.port, timeout=5.0))
    try:
        with pytest.raises(ProtocolError, match="protocol"):
            conn.call("hello", {"protocol": 1})
    finally:
        conn.close()


def test_version_2_hello_is_refused(server):
    """Version 2 had no ``"lock"`` on ``tx.ppis_batch``: a server that
    ignored the field would hand back unlocked rows, so the two do not
    talk to each other."""
    conn = ClientConn(dial(server.host, server.port, timeout=5.0))
    try:
        with pytest.raises(ProtocolError, match="protocol"):
            conn.call("hello", {"protocol": 2})
    finally:
        conn.close()


def test_version_4_hello_is_refused(server):
    """Version 4 shipped a reply's statistics as counter diffs plus event
    objects, which a v5 client cannot read (and version 3 had no
    ``"commit"`` on ``tx.read_batch``: a server that ignored it would
    keep the locks of a transaction its client believes committed).
    Version 5 had no ``delete_batch`` among the buffered writes: its
    server would refuse a v6 client's commit."""
    conn = ClientConn(dial(server.host, server.port, timeout=5.0))
    try:
        for version in (3, 4, 5):
            with pytest.raises(ProtocolError, match="protocol"):
                conn.call("hello", {"protocol": version})
        assert protocol.PROTOCOL_VERSION == 6
    finally:
        conn.close()


def test_retired_knob_and_begin_rpc_are_gone(server, driver):
    # ...and, since v4, the ``tx.delete`` request
    with pytest.raises(TypeError):
        RemoteDriver(server.host, server.port, pipeline_writes=True)
    for method, params in (("begin", {"hint": None}),
                           ("tx.delete", {"tx": 1, "begin": None,
                                          "table": "kv", "key": [1]})):
        with pytest.raises(ProtocolError, match="unknown method"):
            driver._call(method, params)


def _registry_size(registry):
    return len(list(registry.counters())), len(list(registry.histograms()))


def test_unknown_methods_share_one_metric_label(server):
    """A peer's made-up method names are refused, and they do not grow
    the registry: every one is counted and timed as ``unknown``."""
    conn = ClientConn(dial(server.host, server.port, timeout=5.0))
    registry = server.registry
    try:
        with pytest.raises(ProtocolError, match="unknown method"):
            conn.call("bogus")  # the first one makes the metrics ...
        before = _registry_size(registry)
        for i in range(200):
            with pytest.raises(ProtocolError, match="unknown method"):
                conn.call(f"bogus{i}")
    finally:
        conn.close()
    # ... and the next 200 make none
    assert _registry_size(registry) == before
    assert _requests(server)["unknown"] == 201
    assert registry.get_counter("rpc_errors_total", method="unknown",
                                type="ProtocolError") == 201


def test_begin_is_local_and_an_unused_transaction_costs_nothing(server,
                                                                driver):
    before = _requests(server)
    session = driver.session()
    tx = session.begin()
    assert tx.coordinator == -1  # not known before the first reply
    tx.commit()
    tx = session.begin()
    tx.insert("kv", {"k": 1, "v": 1})  # buffered, never shipped
    tx.abort()
    assert _requests(server) == before
    assert driver.table_size("kv") == 0


def test_blind_write_transaction_is_one_request(server, driver):
    before = _requests(server)
    session = _fill(driver, n=6)
    after = _requests(server)
    assert after.pop("tx.commit") - before.get("tx.commit", 0) == 1
    assert after == {m: n for m, n in before.items() if m != "tx.commit"}
    # the stats delta of the commit reply covers the carried writes
    assert session.stats.rows_locked >= 6
    assert session.stats.rows_written == 6
    assert session.stats.count(AccessKind.COMMIT) == 1
    assert driver.table_size("kv") == 6


def test_first_reply_carries_the_coordinator(driver):
    _fill(driver)
    tx = driver.session().begin(("kv", {"k": 3}))
    assert tx.read("kv", (3,))["v"] == 30
    assert tx.coordinator >= 0
    tx.commit()


@pytest.mark.parametrize("carrier", ["read", "delete", "commit"])
def test_deferred_write_error_surfaces_on_the_carrying_request(
        server, driver, carrier):
    _fill(driver, n=2)
    tx = driver.session().begin()
    tx.read("kv", (0,), lock=LockMode.EXCLUSIVE)  # now the server knows it
    assert _open_txs(server) == 1
    tx.insert("kv", {"k": 0, "v": 99})  # k=0 exists: returns all the same
    tx.update("kv", (1,), {"v": 11})
    tx.write("kv", {"k": 5, "v": 5})
    if carrier == "delete":
        # since v4 a delete carries nothing: it joins the buffer, behind
        # the doomed insert, and rides the commit with it
        before = _requests(server)
        assert tx.delete("kv", (1,)) is None
        assert _requests(server) == before
    with pytest.raises(DuplicateKeyError):
        if carrier == "read":
            tx.read("kv", (1,))
        else:
            tx.commit()
    # the error reply ended the transaction on both sides: no frame is
    # needed to abort it, its locks are free, nothing was applied
    assert tx.state.name == "ABORTED"
    assert _open_txs(server) == 0
    assert server.cluster._locks.lock_table_size() == 0
    before = _requests(server)
    tx.abort()
    assert _requests(server) == before
    with pytest.raises(TransactionAbortedError):
        tx.read("kv", (1,))
    session = driver.session()
    assert session.run(lambda t: t.read_batch("kv", [(0,), (1,), (5,)])) \
        == [{"k": 0, "v": 0}, {"k": 1, "v": 10}, None]


def test_deferred_delete_of_a_missing_row_fails_the_carrying_request(
        server, driver):
    """``delete`` is a buffered write like the other three: its X lock is
    taken and its ``NoSuchRowError`` raised by the request that carries
    it; with ``must_exist=False`` a missing row is a no-op there too."""
    _fill(driver, n=2)
    locks = server.cluster._locks
    before = _requests(server)
    tx = driver.session().begin()
    tx.delete("kv", (0,))
    tx.delete("kv", (7,), must_exist=False)
    tx.delete("kv", (9,))  # no such row: returns all the same
    assert _requests(server) == before and locks.lock_table_size() == 0
    with pytest.raises(NoSuchRowError):
        tx.read("kv", (1,))  # carries the three
    assert tx.state.name == "ABORTED"
    assert _open_txs(server) == 0 and locks.lock_table_size() == 0
    assert driver.table_size("kv") == 2  # k=0 did not go
    # a delete that can be applied is: own write visible to the carrying
    # read, the row gone once the commit (its second request) is in
    session = driver.session()
    before = _requests(server)

    def fn(t):
        t.delete("kv", (0,))
        t.delete("kv", (7,), must_exist=False)
        assert locks.lock_table_size() == 0  # nothing shipped yet
        rows = t.read_batch("kv", [(0,), (1,)])
        assert locks.lock_table_size() == 2  # X on k=0 and on k=7
        return rows

    assert session.run(fn) == [None, {"k": 1, "v": 10}]
    after = _requests(server)
    assert {m: n - before.get(m, 0) for m, n in after.items()
            if n != before.get(m, 0)} == {"tx.read_batch": 1, "tx.commit": 1}
    assert driver.table_size("kv") == 1


def test_deferred_write_error_fails_the_commit_not_after_it(driver):
    _fill(driver, n=2)
    session = driver.session()

    def dup(tx):
        tx.insert("kv", {"k": 0, "v": 99})  # buffered; k=0 exists

    with pytest.raises(DuplicateKeyError):
        session.run(dup)
    # the duplicate never committed
    assert session.run(lambda tx: tx.read("kv", (0,))["v"]) == 0

    def missing(tx):
        tx.write("kv", {"k": 7, "v": 7})
        tx.update("kv", (9,), {"v": 0})  # no such row

    with pytest.raises(NoSuchRowError):
        session.run(missing)
    assert driver.table_size("kv") == 2  # k=7 did not slip through


def test_buffered_writes_are_applied_before_the_carrying_read(
        server, driver, monkeypatch):
    """Lock order is call order: the X locks of the writes a read
    carries are taken before the read's own lock."""
    _fill(driver, n=4)
    locks = server.cluster._locks
    acquired = []
    real = locks.acquire
    monkeypatch.setattr(
        locks, "acquire",
        lambda owner, key, mode, **kw: (acquired.append((key, mode)),
                                        real(owner, key, mode, **kw))[1])
    tx = driver.session().begin()
    tx.update("kv", (1,), {"v": 11})
    tx.write("kv", {"k": 2, "v": 21})
    assert not acquired  # nothing has been shipped yet
    assert tx.read("kv", (2,), lock=LockMode.SHARED)["v"] == 21  # own write
    tx.insert("kv", {"k": 8, "v": 8})
    assert tx.read("kv", (9,), lock=LockMode.SHARED) is None
    assert acquired == [
        (("kv", (1,)), LockMode.EXCLUSIVE), (("kv", (2,)), LockMode.EXCLUSIVE),
        (("kv", (2,)), LockMode.SHARED),
        (("kv", (8,)), LockMode.EXCLUSIVE), (("kv", (9,)), LockMode.SHARED)]
    tx.abort()
    assert _open_txs(server) == 0


def test_read_only_commit_and_abort_are_one_way_frames(server, driver,
                                                       monkeypatch):
    _fill(driver)
    session = driver.session()
    waits = []
    real = ClientConn._await
    monkeypatch.setattr(
        ClientConn, "_await",
        lambda conn, req_id: (waits.append(req_id), real(conn, req_id))[1])
    tx = session.begin()
    tx.read("kv", (3,), lock=LockMode.SHARED)
    tx.commit()  # returns without waiting
    tx = session.begin()
    tx.read("kv", (3,), lock=LockMode.EXCLUSIVE)
    tx.abort()
    assert len(waits) == 2  # the two reads; nobody waited for the ends
    # ...yet the frames arrived: the server forgot both transactions and
    # another connection X-locks the row well inside the lock timeout
    other = RemoteDriver(server.host, server.port, timeout=5.0)
    try:
        row = other.session().run(
            lambda t: t.read("kv", (3,), lock=LockMode.EXCLUSIVE))
        assert row["v"] == 30
    finally:
        other.close()
    assert _wait_until(lambda: _open_txs(server) == 0)
    assert not driver._pool[-1].closed  # and the connection is pooled again


def test_writing_transaction_never_ends_with_a_one_way_frame(server, driver,
                                                             monkeypatch):
    _fill(driver)
    sent = []
    real = ClientConn.notify
    monkeypatch.setattr(
        ClientConn, "notify",
        lambda conn, method, params=None: (sent.append(method),
                                           real(conn, method, params))[1])
    session = driver.session()
    for write in (lambda t: t.insert("kv", {"k": 50, "v": 0}),
                  lambda t: t.update("kv", (1,), {"v": 0}),
                  lambda t: t.write("kv", {"k": 51, "v": 0}),
                  lambda t: t.delete("kv", (2,), must_exist=False)):
        for end in ("commit", "abort"):
            tx = session.begin()
            tx.read("kv", (0,))
            write(tx)
            getattr(tx, end)()
            assert _open_txs(server) == 0  # ended with a reply, so: now
    assert sent == []


def test_failed_commit_request_does_not_leak_the_transaction(server, driver):
    """An error reply to a commit that failed before the server forgot
    the transaction used to leave it registered (and its row locks held)
    while the client had already moved on."""
    from repro import faults
    from repro.errors import InjectedFaultError
    from repro.faults import FaultInjector, FaultPlan, FaultSpec

    _fill(driver)
    session = driver.session()
    tx = session.begin()
    tx.read("kv", (3,), lock=LockMode.EXCLUSIVE)
    tx.update("kv", (3,), {"v": 31})
    faults.install(FaultInjector(FaultPlan(specs=[FaultSpec(
        site="rpc.server.commit.before", action="error", max_fires=1)])))
    try:
        with pytest.raises(InjectedFaultError):
            tx.commit()
    finally:
        faults.uninstall()
    tx.abort()  # what every retry loop does next: must have nothing to do
    assert _open_txs(server) == 0
    assert server.cluster._locks.lock_table_size() == 0
    started = time.monotonic()
    row = session.run(lambda t: t.read("kv", (3,), lock=LockMode.EXCLUSIVE))
    assert row["v"] == 30  # the failed commit applied nothing
    assert time.monotonic() - started < CONFIG.lock_timeout / 2


# -- protocol v4: execute(Commit) ----------------------------------------------


def _frames(monkeypatch):
    """Count what a client sends: reply-bearing requests and one-way frames."""
    sent = {"waits": 0, "one_way": 0}
    real_await, real_notify = ClientConn._await, ClientConn.notify

    def waited(conn, req_id):
        sent["waits"] += 1
        return real_await(conn, req_id)

    def notified(conn, method, params=None):
        sent["one_way"] += 1
        return real_notify(conn, method, params)

    monkeypatch.setattr(ClientConn, "_await", waited)
    monkeypatch.setattr(ClientConn, "notify", notified)
    return sent


def test_read_batch_carrying_scans_and_commit_is_the_only_frame(
        server, driver, monkeypatch):
    session = _fill(driver, n=4)
    locks = server.cluster._locks
    before = _requests(server)
    sent = _frames(monkeypatch)

    def fn(tx):
        got = tx.read_batch("kv", [(3,), (9,)], lock=LockMode.EXCLUSIVE,
                            scans=[("kv", {"k": 1}), ("kv", {"k": 8})],
                            commit=True)
        # committed server-side before the reply: nothing left to send
        assert tx.state.name == "COMMITTED" and tx._conn is None
        assert _open_txs(server) == 0 and locks.lock_table_size() == 0
        return got

    rows, scanned = session.run(fn)
    assert rows == [{"k": 3, "v": 30}, None]
    assert scanned == [[{"k": 1, "v": 10}], []]
    assert sent == {"waits": 1, "one_way": 0}
    after = _requests(server)
    assert {m: n - before.get(m, 0) for m, n in after.items()
            if n != before.get(m, 0)} == {"tx.read_batch": 1}
    [event] = session.stats.events
    assert event.kind is AccessKind.BATCH_PK and event.table == "kv"
    assert event.rows == 2 and len(event.partitions) == 4 and event.locked
    assert session.stats.round_trips == 1
    assert not driver._pool[-1].closed  # the connection is pooled again


def test_riding_commit_fires_both_commit_fault_sites(server, driver):
    from repro import faults
    from repro.faults import FaultInjector, FaultPlan, FaultSpec

    _fill(driver)
    injector = faults.install(FaultInjector(FaultPlan(specs=[
        FaultSpec(site="rpc.server.commit.*", action="delay", delay=0.0,
                  max_fires=None)])))
    try:
        tx = driver.session().begin()
        tx.read_batch("kv", [(1,)], lock=LockMode.SHARED, commit=True)
        tx = driver.session().begin()
        tx.read_batch("kv", [(1,)], lock=LockMode.SHARED)  # no commit
        tx.abort()
    finally:
        faults.uninstall()
    assert [f.site for f in injector.fired] == [
        "rpc.server.commit.before", "rpc.server.commit.after"]


@pytest.mark.parametrize("failure", ["scan", "commit.before"])
def test_failing_riding_request_leaves_nothing_and_is_retried(
        server, driver, monkeypatch, failure):
    """An error reply to a ``tx.read_batch`` that carried scans and the
    commit — thrown by a rode scan after the locks were taken, or by the
    fault site in front of the commit — ends the transaction under the
    one failure rule, and being abort-class is retried by the session."""
    from repro import faults
    from repro.faults import FaultInjector, FaultPlan, FaultSpec
    from repro.ndb.transaction import Transaction

    session = _fill(driver)
    locks = server.cluster._locks
    attempts = []
    if failure == "scan":
        real = Transaction._plan_rows

        def scan_once(tx, plan, merge):
            if not attempts:
                attempts.append(locks.lock_table_size())
                raise TransactionAbortedError("induced: scan failed")
            return real(tx, plan, merge)

        monkeypatch.setattr(Transaction, "_plan_rows", scan_once)
    else:
        faults.install(FaultInjector(FaultPlan(specs=[FaultSpec(
            site="rpc.server.commit.before", action="error",
            error="TransactionAbortedError", max_fires=1)])))
    calls = []

    def fn(tx):
        calls.append(tx)
        return tx.read_batch("kv", [(3,)], lock=LockMode.EXCLUSIVE,
                             scans=[("kv", {"k": 1})], commit=True)

    try:
        assert session.run(fn) == ([{"k": 3, "v": 30}], [[{"k": 1, "v": 10}]])
    finally:
        faults.uninstall()
    assert len(calls) == 2 and session.retries_used == 1
    assert [tx.state.name for tx in calls] == ["ABORTED", "COMMITTED"]
    if failure == "scan":
        assert attempts == [1]  # the scan ran with the key's X lock held
    assert _open_txs(server) == 0 and locks.lock_table_size() == 0
    # the failed attempt's connection answered, so it is still good
    assert len(driver._pool) == 1 and not driver._pool[0].closed


def test_conn_loss_under_a_riding_commit_is_a_retryable_abort(server, driver):
    """Nothing was written, so there is nothing ambiguous about a commit
    that may or may not have happened: it is retried like any read."""
    session = _fill(driver)
    calls = []

    def fn(tx):
        calls.append(tx)
        if len(calls) == 1:
            tx._conn._conn._sock.close()  # the request hits a dead socket
        return tx.read_batch("kv", [(3,)], lock=LockMode.SHARED, commit=True)

    assert session.run(fn) == [{"k": 3, "v": 30}]
    assert session.retries_used == 1
    assert calls[0].state.name == "ABORTED"
    assert _wait_until(lambda: _open_txs(server) == 0)


def test_riding_commit_is_never_sent_for_a_transaction_that_wrote(
        server, driver):
    from repro.errors import TransactionError

    _fill(driver)
    before = _requests(server)
    tx = driver.session().begin()
    tx.update("kv", (1,), {"v": 11})
    with pytest.raises(TransactionError, match="read-only"):
        tx.read_batch("kv", [(1,)], commit=True)
    assert _requests(server) == before  # refused client-side
    assert tx.state.name == "ACTIVE"
    tx.commit()
    assert driver.session().run(lambda t: t.read("kv", (1,)))["v"] == 11


def test_ppis_batch_is_one_request_and_one_event(server):
    schema = TableSchema(name="sub", columns=("p", "k", "v"),
                         primary_key=("p", "k"), partition_key=("p",))
    drv = RemoteDriver(server.host, server.port, timeout=5.0)
    try:
        drv.create_table(KV)
        drv.create_table(schema)
        session = drv.session()
        session.run(lambda tx: [tx.insert("sub", {"p": p, "k": k, "v": b"x"})
                                for p in range(3) for k in range(2)])
        before = _requests(server)
        scans = [("sub", {"p": 2}), ("kv", {"k": 1}), ("sub", {"p": 0})]
        got = session.run(lambda tx: tx.ppis_batch(scans))
        assert [len(rows) for rows in got] == [2, 0, 2]
        assert got[2][0] == {"p": 0, "k": 0, "v": b"x"}
        after = _requests(server)
        assert after["tx.ppis_batch"] - before.get("tx.ppis_batch", 0) == 1
        [event] = session.stats.events[-1:]
        assert event.kind is AccessKind.PPIS and event.table == "sub+kv"
        assert event.rows == 4 and len(event.partitions) == 3
    finally:
        drv.close()


def test_locked_ppis_batch_holds_its_locks_on_the_server(server, driver):
    session = _fill(driver, n=4)
    locks = server.cluster._locks
    tx = session.begin()
    got = tx.ppis_batch([("kv", {"k": 3}), ("kv", {"k": 9}), ("kv", {"k": 0})],
                        lock=LockMode.EXCLUSIVE)
    assert [[r["k"] for r in rows] for rows in got] == [[3], [], [0]]
    assert locks.lock_table_size() == 2  # held until the transaction ends
    assert tx.stats.events[-1].locked and tx.stats.rows_locked == 2
    tx.commit()  # read-only: a one-way frame
    assert _wait_until(lambda: locks.lock_table_size() == 0)


def test_conn_loss_mid_transaction_is_a_retryable_abort(driver):
    _fill(driver)
    session = driver.session()
    tx = session.begin()
    tx.write("kv", {"k": 100, "v": 1})
    tx._conn.close()  # simulate the server connection dying mid-tx
    with pytest.raises(TransactionAbortedError):
        tx.read("kv", (0,))
    # the driver recovered: a fresh transaction on a fresh conn works
    assert session.run(lambda t: t.read("kv", (0,))["v"]) == 0


def test_commit_time_conn_loss_is_ambiguous_and_not_retried(driver):
    _fill(driver)
    session = driver.session()

    def fn(tx):
        tx.write("kv", {"k": 200, "v": 5})
        # sever the raw socket without marking the conn closed, so the
        # commit send itself hits the dead connection
        tx._conn._conn._sock.close()

    with pytest.raises(CommitAmbiguousError):
        session.run(fn)
    assert session.retries_used == 0  # ambiguity must never auto-retry


def test_idempotent_reads_retry_across_reconnect(server, driver):
    _fill(driver)
    assert driver.table_size("kv") == 8

    def sever_every_server_side_connection():
        for state in server.loop.peers():
            state.conn.close()

    sever_every_server_side_connection()  # under the client's pool
    assert driver.table_size("kv") == 8  # idempotent: redialed silently
    sever_every_server_side_connection()
    with pytest.raises(ConnectionClosedError):
        driver.complete_epoch()  # non-idempotent: fails fast


def test_error_reply_to_a_driver_call_keeps_its_connection(driver):
    """The stream is in sync after an error reply: the connection goes
    back to the pool instead of leaking (an unclosed socket, and a redial
    counted as a reconnect by the next call)."""
    assert driver.reconnects == 0 and len(driver._pool) == 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for _ in range(3):
            with pytest.raises(NoSuchTableError):
                driver.table_size("no_such_table")
        gc.collect()
    assert driver.reconnects == 0 and len(driver._pool) == 1
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert driver.table_size("kv") == 0  # the pooled connection still works


#: a well-formed event, and the fields a malformed one gets instead
_EVENT = ["pk", "kv", [1], [0], 0, 1, True, False, [0]]
_BAD_FIELDS = {"partitions": (2, "ab"), "rows": (5, 1.5),
               "locked": (6, "yes"), "coordinator": (4, "c"),
               "node_groups": (8, "zz")}


def _bad_event(field: str) -> list:
    position, value = _BAD_FIELDS[field]
    event = list(_EVENT)
    event[position] = value
    return event


#: stats deltas that do not decode: a bad rows_locked, then one per
#: mistyped event field
MALFORMED = {"rows_locked": ["x", []],
             **{f: [1, [_bad_event(f)]] for f in _BAD_FIELDS}}


def test_malformed_stats_end_the_transaction_and_drop_its_connection(
        server, driver, monkeypatch):
    """A reply whose stats do not decode is a ProtocolError like any
    other: the transaction ends, and the connection (whose stream can no
    longer be trusted) is closed, which aborts the server's side too."""
    _fill(driver)
    for name, delta in MALFORMED.items():
        monkeypatch.setattr(protocol.StatsCursor, "delta",
                            lambda cursor, stats, delta=delta: delta)
        tx = driver.session().begin()
        conn = tx._conn
        with pytest.raises(ProtocolError, match="stats"):
            tx.read("kv", (3,), lock=LockMode.EXCLUSIVE)
        assert tx._conn is None and conn.closed, name
        assert conn not in driver._pool, name
        monkeypatch.undo()
        # the X-lock is gone
        assert _wait_until(lambda: _open_txs(server) == 0), name
        assert driver.session().run(
            lambda t: t.read("kv", (3,), lock=LockMode.EXCLUSIVE))["v"] == 30


def test_draining_server_rejects_new_transactions(server, driver):
    _fill(driver)
    server._draining = True
    session = driver.session()
    with pytest.raises(ServerShutdownError):
        session.run(lambda tx: tx.read("kv", (0,)))
    server._draining = False
    assert session.run(lambda tx: tx.read("kv", (0,))["v"]) == 0


def test_graceful_stop_drains_in_flight_transaction(server, driver):
    _fill(driver)
    session = driver.session()
    tx = session.begin()
    # a locked read first: a transaction exists server-side from its
    # first request on, and only such a one can hold up the drain
    tx.read("kv", (0,), lock=LockMode.EXCLUSIVE)
    tx.write("kv", {"k": 300, "v": 42})

    stopper = threading.Thread(target=server.stop)
    stopper.start()
    try:
        time.sleep(0.15)  # server is now draining, waiting on our tx
        tx.commit()  # still inside the drain window: must succeed
    finally:
        stopper.join(timeout=10)
    assert not stopper.is_alive()


def test_shutdown_rpc_stops_the_server(server, driver):
    driver.shutdown_server()
    deadline = time.time() + 5
    while not server.stop_requested.is_set() and time.time() < deadline:
        time.sleep(0.01)
    assert server.stop_requested.is_set()


def test_metrics_snapshots_merge_across_servers():
    with NDBServer(config=CONFIG, name="ndb-a") as a, \
         NDBServer(config=CONFIG, name="ndb-b") as b:
        snaps = []
        for srv in (a, b):
            drv = RemoteDriver(srv.host, srv.port, timeout=5.0)
            drv.create_table(KV)
            _fill(drv, n=4)
            snaps.append(drv.metrics_snapshot())
            drv.close()

    merged = export.merge_snapshots(snaps)

    def requests(snap):
        return sum(c["value"] for c in snap["counters"]
                   if c["name"] == "rpc_requests_total")

    want = sum(requests(s) for s in snaps)
    assert want > 0 and requests(merged) == want
    assert merged["meta"]["merged_from"] == 2
    # pooled histogram samples: merged count is the sum of the parts
    def observations(snap):
        return sum(h["count"] for h in snap["histograms"]
                   if h["name"] == "rpc_request_seconds")

    assert observations(merged) == sum(observations(s) for s in snaps) > 0


def test_kill_datanode_mid_commit_storm(driver):
    """Datanode failover under a concurrent commit storm, over RPC.

    Worker threads hammer transactions while the coordinator's node is
    killed and restarted through the admin surface; every op must
    eventually commit (conn-level aborts retry like engine aborts) and
    the replicas must end identical.
    """
    _fill(driver)
    errors: list[Exception] = []
    done = threading.Event()

    def worker(tid: int) -> None:
        session = driver.session()
        try:
            for i in range(15):
                key = 1000 + tid * 100 + i

                def fn(tx, key=key, i=i):
                    tx.read("kv", (tid,))
                    tx.write("kv", {"k": key, "v": i})

                session.run(fn, retries=10)
        except Exception as exc:  # pragma: no cover - asserted below
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    driver.kill_node(1)
    time.sleep(0.1)
    driver.restart_node(1)
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert sorted(driver.live_nodes()) == [0, 1, 2, 3]

    # replica identity: every replica of every partition has the same rows
    for pid, replicas in driver.replica_snapshots("kv").items():
        assert len(replicas) >= 2
        for replica in replicas[1:]:
            assert replica == replicas[0], f"partition {pid} diverged"


def test_unix_socket_roundtrip(tmp_path):
    """AF_UNIX deployment: full tx cycle plus stale-socket cleanup."""
    path = str(tmp_path / "ndb.sock")
    with open(path, "w", encoding="utf-8"):
        pass  # stale file from a "dead server"; start() must replace it
    with NDBServer(config=CONFIG, unix_path=path) as srv:
        drv = RemoteDriver(unix_path=path, timeout=5.0,
                           reconnect_backoff=0.01)
        try:
            drv.create_table(KV)
            session = drv.session()
            session.run(lambda tx: tx.insert("kv", {"k": 1, "v": 10}))
            assert session.run(lambda tx: tx.read("kv", (1,)))["v"] == 10
            assert path in drv.engine_name
        finally:
            drv.close()
        assert srv.unix_path == path
    import os
    assert not os.path.exists(path)  # stop() unlinks the socket file


# -- protocol v5: the client recounts the server's statistics ------------------

IX = TableSchema(name="ix", columns=("k", "g", "v"), primary_key=("k",),
                 indexes={"by_g": ("g",)})


def _writes(tx):
    tx.read("kv", (1,), lock=LockMode.EXCLUSIVE)
    tx.update("kv", (1,), {"v": 11})
    tx.delete("kv", (2,))
    tx.insert("kv", {"k": 20, "v": 0})
    tx.write("kv", {"k": 21, "v": 0})
    tx.delete("kv", (30,), must_exist=False)
    tx.commit()


def _error_mid_transaction(tx):
    tx.read_batch("kv", [(1,), (5,)], lock=LockMode.SHARED)
    with pytest.raises(NoSuchTableError):
        tx.read("no_such_table", (1,))
    assert tx.state.name == "ABORTED"


STATS_SCENARIOS = {
    "read": lambda tx: (tx.read("kv", (3,), lock=LockMode.SHARED),
                        tx.read("kv", (9,))),
    "read_batch": lambda tx: tx.read_batch(
        "kv", [(1,), (2,), (9,)],
        locks=[LockMode.EXCLUSIVE, LockMode.READ_COMMITTED, LockMode.SHARED],
        scans=[("kv", {"k": 4}), ("kv", {"k": 40})], commit=True),
    "ppis": lambda tx: tx.ppis("kv", {"k": 2}, lock=LockMode.SHARED),
    "ppis_batch": lambda tx: tx.ppis_batch(
        [("kv", {"k": 1}), ("kv", {"k": 5})], lock=LockMode.EXCLUSIVE),
    "index_scan": lambda tx: tx.index_scan("ix", "by_g", [1],
                                           lock=LockMode.SHARED),
    "full_scan": lambda tx: tx.full_scan("kv"),
    "writes": _writes,
    "error": _error_mid_transaction,
}


@pytest.mark.parametrize("scenario", sorted(STATS_SCENARIOS))
def test_client_stats_equal_the_servers_field_by_field(server, driver,
                                                       monkeypatch, scenario):
    """Every counter the engine keeps for a transaction — the scalars,
    ``by_kind`` and the events — reads the same in the client's
    ``tx.stats``: recounted from the shipped events, ``rows_locked``
    shipped as is. An error reply ships nothing, and the request that
    failed (an unknown table) counted nothing server-side either."""
    _fill(driver)
    driver.create_table(IX)
    driver.session().run(lambda tx: [tx.insert("ix", {"k": k, "g": k % 2,
                                                      "v": k})
                                     for k in range(4)])
    begun = []
    real = server._begin

    def begin(state, handle, hint):
        entry = real(state, handle, hint)
        begun.append(entry[0])
        return entry

    monkeypatch.setattr(server, "_begin", begin)
    tx = driver.session().begin(("kv", {"k": 3}))
    STATS_SCENARIOS[scenario](tx)
    [served] = begun
    assert tx.stats.events
    assert asdict(tx.stats) == asdict(served.stats)
    tx.abort()
