"""DAL driver parity tests: every driver satisfies the same contract.

The ``process`` parameter runs the whole suite against a
:class:`~repro.dal.RemoteDriver` speaking the RPC protocol to an
in-thread :class:`~repro.rpc.NDBServer` — the process-deployment code
path minus the subprocess spawn (covered by ``test_rpc_process.py``).
"""

import pytest

from repro.dal import MemoryDriver, NDBDriver, RemoteDriver
from repro.errors import DuplicateKeyError, NoSuchRowError, SchemaError
from repro.ndb import AccessKind, LockMode, NDBConfig, TableSchema
from repro.rpc import NDBServer

SCHEMA = TableSchema(
    name="items",
    columns=("pid", "name", "value"),
    primary_key=("pid", "name"),
    partition_key=("pid",),
    indexes={"by_value": ("value",)},
)

CONFIG = NDBConfig(num_datanodes=2, replication=2, lock_timeout=0.4)


@pytest.fixture(params=["ndb", "memory", "process"])
def driver(request):
    if request.param == "ndb":
        drv = NDBDriver(config=CONFIG)
        drv.create_table(SCHEMA)
        yield drv
    elif request.param == "memory":
        drv = MemoryDriver()
        drv.create_table(SCHEMA)
        yield drv
    else:
        with NDBServer(config=CONFIG) as server:
            drv = RemoteDriver(server.host, server.port, timeout=10.0)
            drv.create_table(SCHEMA)
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


def test_batch_read_order_preserved(driver):
    session = driver.session()
    session.run(lambda tx: tx.insert("items", {"pid": 1, "name": "a", "value": 1}))
    rows = session.run(
        lambda tx: tx.read_batch("items", [(1, "a"), (1, "missing")])
    )
    assert rows[0]["value"] == 1 and rows[1] is None


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
