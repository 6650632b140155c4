"""DAL driver parity tests: every driver satisfies the same contract.

The ``process`` parameter runs the whole suite against a
:class:`~repro.dal.RemoteDriver` speaking the RPC protocol to an
in-thread :class:`~repro.rpc.NDBServer` — the process-deployment code
path minus the subprocess spawn (covered by ``test_rpc_process.py``).
"""

import threading
import time

import pytest

from repro.dal import MemoryDriver, NDBDriver, RemoteDriver
from repro.errors import (
    CommitAmbiguousError,
    DuplicateKeyError,
    NoSuchRowError,
    SchemaError,
    TransactionAbortedError,
    TransactionError,
)
from repro.ndb import AccessKind, LockMode, NDBConfig, TableSchema
from repro.rpc import NDBServer

SCHEMA = TableSchema(
    name="items",
    columns=("pid", "name", "value"),
    primary_key=("pid", "name"),
    partition_key=("pid",),
    indexes={"by_value": ("value",)},
)

TAGS = TableSchema(
    name="tags",
    columns=("pid", "tag"),
    primary_key=("pid", "tag"),
    partition_key=("pid",),
)

CONFIG = NDBConfig(num_datanodes=2, replication=2, lock_timeout=0.4)


@pytest.fixture(params=["ndb", "memory", "process"])
def driver(request):
    if request.param == "ndb":
        drv = NDBDriver(config=CONFIG)
        drv.create_table(SCHEMA)
        drv.create_table(TAGS)
        yield drv
    elif request.param == "memory":
        drv = MemoryDriver()
        drv.create_table(SCHEMA)
        drv.create_table(TAGS)
        yield drv
    else:
        with NDBServer(config=CONFIG) as server:
            drv = RemoteDriver(server.host, server.port, timeout=10.0)
            drv._test_server = server  # for _locks_held
            drv.create_table(SCHEMA)
            drv.create_table(TAGS)
            try:
                yield drv
            finally:
                drv.close()


def test_engine_name(driver):
    assert driver.engine_name


def test_crud_roundtrip(driver):
    session = driver.session()

    def create(tx):
        tx.insert("items", {"pid": 1, "name": "a", "value": 10})

    session.run(create)
    assert driver.table_size("items") == 1

    def bump(tx):
        row = tx.read("items", (1, "a"), lock=LockMode.EXCLUSIVE)
        tx.update("items", (1, "a"), {"value": row["value"] + 1})

    session.run(bump)
    value = session.run(lambda tx: tx.read("items", (1, "a"))["value"])
    assert value == 11

    session.run(lambda tx: tx.delete("items", (1, "a")))
    assert driver.table_size("items") == 0


def test_duplicate_and_missing(driver):
    session = driver.session()
    session.run(lambda tx: tx.insert("items", {"pid": 1, "name": "a", "value": 1}))
    with pytest.raises(DuplicateKeyError):
        session.run(lambda tx: tx.insert("items", {"pid": 1, "name": "a", "value": 2}))
    with pytest.raises(NoSuchRowError):
        session.run(lambda tx: tx.update("items", (9, "x"), {"value": 0}))


def test_ppis_filters_partition(driver):
    session = driver.session()

    def fill(tx):
        for pid in (1, 2):
            for i in range(4):
                tx.insert("items", {"pid": pid, "name": f"n{i}", "value": i})

    session.run(fill)
    rows = session.run(lambda tx: tx.ppis("items", {"pid": 1}))
    assert len(rows) == 4 and all(r["pid"] == 1 for r in rows)


def test_ppis_rejects_non_partition_key_columns(driver):
    """A scan is pruned by the partition key only: a driver may neither
    drop another column silently nor filter on it (that is a predicate)."""
    session = driver.session()
    session.run(lambda tx: tx.insert(
        "items", {"pid": 1, "name": "a", "value": 7}))
    for bad in ({"pid": 1, "value": 7}, {"pid": 1, "name": "a"},
                {"pid": 1, "nope": 0}):
        with pytest.raises(SchemaError):
            session.run(lambda tx, bad=bad: tx.ppis("items", bad))
    with pytest.raises(SchemaError):  # and must still cover the key
        session.run(lambda tx: tx.ppis("items", {}))
    rows = session.run(lambda tx: tx.ppis(
        "items", {"pid": 1}, predicate=lambda r: r["value"] == 7))
    assert [r["name"] for r in rows] == ["a"]


def _fill_items_and_tags(session):
    def fill(tx):
        for pid in (1, 2, 3):
            for i in range(pid):  # pid 1 has one item, pid 3 three
                tx.insert("items", {"pid": pid, "name": f"n{i}", "value": i})
            tx.insert("tags", {"pid": pid, "tag": "t"})

    session.run(fill)


def test_ppis_batch_is_the_single_scans_in_one_round_trip(driver):
    session = driver.session()
    _fill_items_and_tags(session)
    scans = [("items", {"pid": 3}), ("tags", {"pid": 1}),
             ("items", {"pid": 9}), ("items", {"pid": 1}),
             ("tags", {"pid": 3}), ("items", {"pid": 3})]

    singles = session.run(
        lambda tx: [tx.ppis(table, values) for table, values in scans])
    session.reset_stats()
    batched = session.run(lambda tx: tx.ppis_batch(scans))
    # results in request order, mixed tables, repeats and misses included
    assert batched == singles
    assert [len(rows) for rows in batched] == [3, 1, 0, 1, 1, 3]
    assert batched[1] == [{"pid": 1, "tag": "t"}]
    # one round trip and one access event for the whole batch, with the
    # rows of every scan counted
    assert session.stats.round_trips == 1
    assert session.stats.count(AccessKind.PPIS) == 1
    assert session.stats.rows_read == 9
    [event] = session.stats.events
    assert event.table == "items+tags" and not event.locked


def test_ppis_batch_empty_batch_costs_nothing(driver):
    session = driver.session()
    assert session.run(lambda tx: tx.ppis_batch([])) == []
    assert session.run(
        lambda tx: tx.ppis_batch([], lock=LockMode.EXCLUSIVE)) == []
    assert session.stats.round_trips == 0 and not session.stats.events
    assert session.stats.rows_locked == 0


LOCKING = [LockMode.SHARED, LockMode.EXCLUSIVE]


@pytest.mark.lock_witness_exempt  # the single scans lock in request order
@pytest.mark.parametrize("lock", LOCKING, ids=lambda m: m.name)
def test_locked_ppis_batch_is_the_locked_single_scans(driver, lock):
    session = driver.session()
    _fill_items_and_tags(session)
    # request order is neither table nor pk order; one partition repeats
    scans = [("tags", {"pid": 3}), ("items", {"pid": 3}),
             ("items", {"pid": 9}), ("items", {"pid": 1}),
             ("tags", {"pid": 1}), ("items", {"pid": 3})]

    session.reset_stats()
    singles = session.run(lambda tx: [
        tx.ppis(table, values, lock=lock) for table, values in scans])
    single_stats = session.reset_stats()
    batched = session.run(lambda tx: tx.ppis_batch(scans, lock=lock))
    assert batched == singles
    assert [len(rows) for rows in batched] == [1, 3, 0, 1, 1, 3]
    # one round trip and one locked event; rows read and rows locked are
    # the per-scan sums (a row two scans share counts for each)
    stats = session.stats
    assert single_stats.round_trips == len(scans) and stats.round_trips == 1
    assert stats.count(AccessKind.PPIS) == 1
    assert stats.rows_read == single_stats.rows_read == 9
    assert stats.rows_locked == single_stats.rows_locked >= 9
    [event] = stats.events
    assert event.table == "tags+items" and event.locked
    assert event.rows == 9


@pytest.mark.lock_witness_exempt  # writes first, then locks lower keys
@pytest.mark.parametrize("lock", LOCKING, ids=lambda m: m.name)
def test_locked_ppis_batch_reads_the_transactions_own_writes(driver, lock):
    session = driver.session()
    _fill_items_and_tags(session)
    scans = [("items", {"pid": 1}), ("items", {"pid": 3}),
             ("tags", {"pid": 2}), ("items", {"pid": 7})]

    def fn(tx):
        tx.insert("items", {"pid": 1, "name": "new", "value": 5})
        tx.delete("items", (3, "n1"))
        tx.update("items", (3, "n2"), {"value": 20})
        tx.write("tags", {"pid": 2, "tag": "u"})
        tx.insert("items", {"pid": 7, "name": "only", "value": 7})
        batched = tx.ppis_batch(scans, lock=lock)
        assert batched == [tx.ppis(table, values, lock=lock)
                           for table, values in scans]
        return batched

    ones, threes, tags, sevens = session.run(fn)
    assert sorted(r["name"] for r in ones) == ["n0", "new"]
    assert sorted((r["name"], r["value"]) for r in threes) == [
        ("n0", 0), ("n2", 20)]
    assert sorted(r["tag"] for r in tags) == ["t", "u"]
    assert [r["name"] for r in sevens] == ["only"]


def test_locked_ppis_batch_drops_rows_that_vanish_before_the_grant(driver):
    """A candidate deleted between the unlocked candidate read and the
    lock grant is gone from the re-read under lock."""
    if isinstance(driver, MemoryDriver):
        pytest.skip("one global mutex: no second transaction can be open")
    session = driver.session()
    _fill_items_and_tags(session)
    deleter = driver.session().begin()
    # a locked read takes the X lock now on every driver (a remote
    # delete is buffered: it locks when the request carrying it ships)
    assert deleter.read("items", (3, "n1"), lock=LockMode.EXCLUSIVE)
    deleter.delete("items", (3, "n1"))
    scans = [("items", {"pid": 3}), ("tags", {"pid": 3})]
    got = []

    def scan():
        got.append(session.run(
            lambda tx: tx.ppis_batch(scans, lock=LockMode.EXCLUSIVE)))

    session.reset_stats()
    waiter = threading.Thread(target=scan)
    waiter.start()
    time.sleep(0.1)  # the batch read its candidates and waits for (3, n1)
    assert waiter.is_alive()
    deleter.commit()
    waiter.join(timeout=5.0)
    assert not waiter.is_alive()
    [[items, tags]] = got
    assert [r["name"] for r in items] == ["n0", "n2"]
    assert tags == [{"pid": 3, "tag": "t"}]
    # four candidates were locked — the vanished one included — and the
    # three rows found under the locks are what the event counts
    assert session.stats.rows_read == 3
    assert session.stats.rows_locked == 4 + 3
    assert session.run(lambda tx: tx.ppis_batch(scans)) == [items, tags]


def test_ppis_batch_rejects_non_partition_key_columns(driver):
    session = driver.session()
    _fill_items_and_tags(session)
    for bad in ({"pid": 1, "value": 0}, {"name": "n0"}, {}):
        with pytest.raises(SchemaError):
            session.run(lambda tx, bad=bad: tx.ppis_batch(
                [("tags", {"pid": 1}), ("items", bad)]))


def test_ppis_batch_reads_the_transactions_own_writes(driver):
    session = driver.session()
    _fill_items_and_tags(session)

    def fn(tx):
        tx.insert("items", {"pid": 1, "name": "new", "value": 5})
        tx.delete("items", (3, "n1"))
        tx.update("items", (3, "n2"), {"value": 20})
        tx.write("tags", {"pid": 2, "tag": "u"})
        return tx.ppis_batch([("items", {"pid": 1}), ("items", {"pid": 3}),
                              ("tags", {"pid": 2})])

    ones, threes, tags = session.run(fn)
    assert sorted(r["name"] for r in ones) == ["n0", "new"]
    assert sorted((r["name"], r["value"]) for r in threes) == [
        ("n0", 0), ("n2", 20)]
    assert sorted(r["tag"] for r in tags) == ["t", "u"]


def test_batch_read_order_preserved(driver):
    session = driver.session()
    session.run(lambda tx: tx.insert("items", {"pid": 1, "name": "a", "value": 1}))
    rows = session.run(
        lambda tx: tx.read_batch("items", [(1, "a"), (1, "missing")])
    )
    assert rows[0]["value"] == 1 and rows[1] is None


# -- read_batch(scans=, commit=): execute() and execute(Commit) ------------------


def _locks_held(driver) -> int:
    """Row locks (ndb) or open server transactions (process) left behind."""
    if isinstance(driver, MemoryDriver):  # its one lock: the global mutex
        return int(driver._mutex._is_owned())
    cluster = (driver.cluster if isinstance(driver, NDBDriver)
               else driver._test_server.driver.cluster)
    held = cluster._locks.lock_table_size()
    if not isinstance(driver, NDBDriver):
        held += int(driver._test_server.registry.get_gauge("rpc_open_txs"))
    return held


@pytest.mark.parametrize("locks", [
    None, [LockMode.SHARED, LockMode.READ_COMMITTED, LockMode.EXCLUSIVE]],
    ids=["unlocked", "locked"])
def test_read_batch_with_scans_is_the_read_then_the_scans_in_one_round_trip(
        driver, locks):
    session = driver.session()
    _fill_items_and_tags(session)
    keys = [(1, "n0"), (2, "missing"), (3, "n2")]
    scans = [("tags", {"pid": 3}), ("items", {"pid": 3}),
             ("items", {"pid": 9}), ("tags", {"pid": 1})]

    session.reset_stats()
    apart = session.run(lambda tx: (
        tx.read_batch("items", keys, locks=locks), tx.ppis_batch(scans)))
    apart_stats = session.reset_stats()
    together = session.run(lambda tx: tx.read_batch(
        "items", keys, locks=locks, scans=scans))
    assert together == apart
    rows, scanned = together
    assert [r and r["name"] for r in rows] == ["n0", None, "n2"]
    assert [len(found) for found in scanned] == [1, 3, 0, 1]
    # ONE event and ONE round trip where there were two, the same rows
    stats = session.stats
    assert apart_stats.round_trips == 2 and stats.round_trips == 1
    assert stats.rows_read == apart_stats.rows_read == 2 + 5
    assert stats.rows_locked == apart_stats.rows_locked
    [event] = stats.events
    assert event.kind is AccessKind.BATCH_PK
    assert event.table == "items+tags" and event.rows == 7
    assert event.locked is (locks is not None)
    if not isinstance(driver, MemoryDriver):
        # partitions of the keys, then of the scans
        assert len(event.partitions) == len(keys) + len(scans)
    # an empty scan list is still "with scans": a pair comes back
    assert session.run(lambda tx: tx.read_batch(
        "items", keys[:1], scans=[])) == (rows[:1], [])


def test_read_batch_scans_see_the_transactions_own_writes(driver):
    session = driver.session()
    _fill_items_and_tags(session)

    def fn(tx):
        tx.insert("items", {"pid": 1, "name": "new", "value": 5})
        tx.delete("items", (3, "n1"))
        tx.update("items", (3, "n2"), {"value": 20})
        tx.write("tags", {"pid": 3, "tag": "u"})
        keys = [(1, "new"), (3, "n1"), (3, "n2")]
        scans = [("items", {"pid": 1}), ("items", {"pid": 3}),
                 ("tags", {"pid": 3})]
        together = tx.read_batch("items", keys, scans=scans)
        assert together == (tx.read_batch("items", keys),
                            tx.ppis_batch(scans))
        return together

    rows, (ones, threes, tags) = session.run(fn)
    assert [r and r["value"] for r in rows] == [5, None, 20]
    assert sorted(r["name"] for r in ones) == ["n0", "new"]
    assert sorted((r["name"], r["value"]) for r in threes) == [
        ("n0", 0), ("n2", 20)]
    assert sorted(r["tag"] for r in tags) == ["t", "u"]


def test_read_batch_rejects_an_unpruned_riding_scan(driver):
    session = driver.session()
    _fill_items_and_tags(session)
    with pytest.raises(SchemaError):
        session.run(lambda tx: tx.read_batch(
            "items", [(1, "n0")], lock=LockMode.EXCLUSIVE,
            scans=[("items", {"name": "n0"})]))
    assert _locks_held(driver) == 0


def test_read_batch_commit_ends_the_transaction_and_frees_its_locks(driver):
    session = driver.session()
    _fill_items_and_tags(session)
    tx = session.begin()
    rows, scanned = tx.read_batch(
        "items", [(3, "n0"), (3, "n1")], lock=LockMode.EXCLUSIVE,
        scans=[("tags", {"pid": 3})], commit=True)
    assert [r["name"] for r in rows] == ["n0", "n1"]
    assert scanned == [[{"pid": 3, "tag": "t"}]]
    assert tx.state.name == "COMMITTED"
    assert tx.stats.round_trips == 1 and tx.stats.rows_locked >= 2
    assert _locks_held(driver) == 0  # before any further call or frame
    # a second call finds the transaction over; abort has nothing to do
    with pytest.raises(TransactionAbortedError):
        tx.read_batch("items", [(3, "n0")])
    with pytest.raises(TransactionAbortedError):
        tx.commit()
    tx.abort()
    assert tx.state.name == "COMMITTED"
    # session.run skips its own commit for such a transaction
    assert session.run(lambda t: t.read_batch(
        "items", [(1, "n0")], lock=LockMode.SHARED,
        commit=True))[0]["value"] == 0
    assert _locks_held(driver) == 0


@pytest.mark.parametrize("write", [
    lambda tx: tx.insert("items", {"pid": 5, "name": "w", "value": 0}),
    lambda tx: tx.update("items", (1, "n0"), {"value": 9}),
    lambda tx: tx.write("tags", {"pid": 5, "tag": "w"}),
    lambda tx: tx.delete("items", (1, "n0")),
], ids=["insert", "update", "write", "delete"])
def test_read_batch_commit_is_refused_on_a_transaction_that_wrote(driver,
                                                                  write):
    session = driver.session()
    _fill_items_and_tags(session)
    tx = session.begin()
    write(tx)
    with pytest.raises(TransactionError, match="read-only"):
        tx.read_batch("items", [(1, "n0")], commit=True)
    # refused before anything was read or sent: still open, still ours
    assert tx.state.name == "ACTIVE" and tx.stats.round_trips == 0
    tx.abort()
    assert _locks_held(driver) == 0
    assert session.run(lambda t: t.read("items", (1, "n0")))["value"] == 0


def test_index_scan(driver):
    session = driver.session()

    def fill(tx):
        for i in range(6):
            tx.insert("items", {"pid": i, "name": "x", "value": i % 2})

    session.run(fill)
    rows = session.run(lambda tx: tx.index_scan("items", "by_value", (1,)))
    assert len(rows) == 3


def test_stats_recorded(driver):
    session = driver.session()
    session.run(lambda tx: tx.insert("items", {"pid": 1, "name": "a", "value": 1}))
    session.run(lambda tx: tx.read("items", (1, "a")))
    assert session.stats.count(AccessKind.PK) == 1
    assert session.stats.count(AccessKind.COMMIT) >= 1


def test_session_run_retries_an_abort_once_and_counts_it(driver):
    """One retry loop (``run_in_session``) behind every driver's
    ``session.run``: an abort-class error re-runs the callback."""
    session = driver.session()
    calls = []

    def fn(tx):
        calls.append(len(calls))
        tx.insert("items", {"pid": 7, "name": f"try{len(calls)}", "value": 0})
        if len(calls) == 1:
            raise TransactionAbortedError("induced abort")
        return "done"

    assert session.run(fn) == "done"
    assert calls == [0, 1]
    assert session.retries_used == 1
    # the aborted attempt's write is gone, the retry's is in
    names = session.run(lambda tx: [r["name"] for r in
                                    tx.ppis("items", {"pid": 7})])
    assert names == ["try2"]
    assert driver.metrics_registry().get_counter(
        "ndb_tx_retries_total", reason="TransactionAbortedError") == 1


def test_session_run_never_retries_an_ambiguous_commit(driver):
    session = driver.session()
    calls = []

    def fn(tx):
        calls.append(1)
        raise CommitAmbiguousError("induced")

    with pytest.raises(CommitAmbiguousError):
        session.run(fn)
    assert calls == [1]
    assert session.retries_used == 0
    # the session is not wedged: the failed transaction let go
    session.run(lambda tx: tx.insert(
        "items", {"pid": 8, "name": "after", "value": 0}))
    assert driver.table_size("items") == 1
