"""``DALTransaction.delete_batch``: the write analogue of ``read_batch``,
checked on every engine — the NDB cluster, the memory engine and a
remote driver speaking to an in-thread ndb-server.

A batch deletes each existing row of its keys (a missing one is
skipped), cancels a buffered insert, X-locks the rows as one batch in
key order and costs no round trip: like every write it ships with the
commit.
"""

import pytest

from repro.dal import MemoryDriver, NDBCluster, RemoteDriver
from repro.errors import LockTimeoutError
from repro.ndb import LockMode, NDBConfig, TableSchema
from repro.rpc import NDBServer

ITEMS = TableSchema(
    name="items",
    columns=("pid", "name", "value"),
    primary_key=("pid", "name"),
    partition_key=("pid",),
)

CONFIG = NDBConfig(num_datanodes=2, replication=2, lock_timeout=0.3)


@pytest.fixture(params=["ndb", "memory", "remote"])
def driver(request):
    if request.param == "remote":
        with NDBServer(config=CONFIG) as server:
            drv = RemoteDriver(server.host, server.port, timeout=10.0)
            drv.create_table(ITEMS)
            try:
                yield drv
            finally:
                drv.close()
        return
    drv = NDBCluster(CONFIG) if request.param == "ndb" else MemoryDriver()
    drv.create_table(ITEMS)
    yield drv


def _fill(driver):
    session = driver.session()

    def fill(tx):
        for pid in (1, 2):
            for i in range(3):
                tx.insert("items", {"pid": pid, "name": f"n{i}",
                                    "value": 10 * pid + i})

    session.run(fill)
    return session


def _names(session, pid):
    rows = session.run(lambda tx: tx.ppis("items", {"pid": pid}))
    return sorted(row["name"] for row in rows)


def test_existing_rows_go_and_missing_keys_are_skipped(driver):
    session = _fill(driver)
    tx = session.begin()
    tx.delete_batch("items", [(1, "absent"), (1, "n0"), (1, "n2"),
                              (2, "n1"), (3, "absent")])
    assert tx.stats.round_trips == 0  # buffered, like every write
    tx.commit()
    assert tx.stats.rows_locked == 5  # one per key, as delete counts
    assert _names(session, 1) == ["n1"]
    assert _names(session, 2) == ["n0", "n2"]
    assert driver.table_size("items") == 3


def test_an_empty_batch_deletes_nothing(driver):
    session = _fill(driver)
    session.run(lambda tx: tx.delete_batch("items", []))
    assert driver.table_size("items") == 6


def test_a_buffered_insert_is_cancelled(driver):
    session = _fill(driver)

    def fn(tx):  # keys in rising order (the lock order)
        tx.insert("items", {"pid": 1, "name": "m", "value": 0})
        tx.delete_batch("items", [(1, "m"), (1, "n0")])
        # cancelled, not deleted: the key is free to insert again
        tx.insert("items", {"pid": 1, "name": "m", "value": 7})
        tx.insert("items", {"pid": 1, "name": "o", "value": 0})
        tx.delete_batch("items", [(1, "o")])

    session.run(fn)
    assert _names(session, 1) == ["m", "n1", "n2"]
    row = session.run(lambda tx: tx.read("items", (1, "m")))
    assert row["value"] == 7


@pytest.mark.lock_witness_exempt  # a locked scan over rows it deleted first
def test_the_transaction_reads_its_own_deletes(driver):
    session = _fill(driver)
    tx = session.begin()
    tx.delete_batch("items", [(1, "n0"), (1, "n1"), (2, "n2")])
    single = tx.read("items", (1, "n0"))
    batch = tx.read_batch("items", [(1, "n1"), (1, "n2"), (2, "n2")])
    scanned = tx.ppis("items", {"pid": 1})
    locked = tx.ppis_batch([("items", {"pid": 1}), ("items", {"pid": 2})],
                           lock=LockMode.EXCLUSIVE)
    tx.abort()
    assert single is None
    assert [row and row["name"] for row in batch] == [None, "n2", None]
    assert [row["name"] for row in scanned] == ["n2"]
    assert [sorted(row["name"] for row in rows) for rows in locked] == [
        ["n2"], ["n0", "n1"]]
    assert driver.table_size("items") == 6  # aborted: nothing deleted


def test_a_deleted_row_stays_x_locked_until_the_commit(driver):
    if isinstance(driver, MemoryDriver):
        pytest.skip("one global mutex: no second transaction can be open")
    session = _fill(driver)
    deleter = session.begin()
    deleter.delete_batch("items", [(1, "n0"), (1, "n1")])
    # a remote batch is buffered: it locks when a request carries it
    assert deleter.read("items", (2, "n0"))["value"] == 20
    other = driver.session().begin()
    with pytest.raises(LockTimeoutError):
        other.read("items", (1, "n1"), lock=LockMode.EXCLUSIVE)
    other.abort()
    deleter.commit()
    assert _names(session, 1) == ["n2"]
    assert driver.session().run(
        lambda tx: tx.read("items", (1, "n1"), lock=LockMode.EXCLUSIVE)) \
        is None
