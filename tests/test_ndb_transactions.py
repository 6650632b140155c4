"""Tests for NDB transactions: CRUD, isolation, scans, access stats."""

import threading

import pytest

from repro.errors import (
    DuplicateKeyError,
    NoSuchRowError,
    NoSuchTableError,
    SchemaError,
)
from repro.ndb import AccessKind, LockMode, NDBCluster, NDBConfig, TableSchema


INODES = TableSchema(
    name="inodes",
    columns=("parent_id", "name", "inode_id", "is_dir", "perm"),
    primary_key=("parent_id", "name"),
    partition_key=("parent_id",),
    indexes={"by_inode": ("inode_id",)},
)

BLOCKS = TableSchema(
    name="blocks",
    columns=("inode_id", "block_id", "size"),
    primary_key=("inode_id", "block_id"),
    partition_key=("inode_id",),
)


@pytest.fixture
def cluster():
    c = NDBCluster(NDBConfig(num_datanodes=4, replication=2, lock_timeout=0.4))
    c.create_table(INODES)
    c.create_table(BLOCKS)
    return c


def inode(parent_id, name, inode_id, is_dir=False, perm=0o644):
    return dict(parent_id=parent_id, name=name, inode_id=inode_id,
                is_dir=is_dir, perm=perm)


class TestBasicCrud:
    def test_insert_and_read(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "etc", 1, is_dir=True))
        with cluster.begin() as tx:
            row = tx.read("inodes", (0, "etc"))
        assert row["inode_id"] == 1 and row["is_dir"] is True

    def test_read_missing_returns_none(self, cluster):
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "nope")) is None

    def test_update(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        with cluster.begin() as tx:
            tx.update("inodes", (0, "f"), {"perm": 0o755})
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "f"))["perm"] == 0o755

    def test_update_missing_raises(self, cluster):
        with cluster.begin() as tx:
            with pytest.raises(NoSuchRowError):
                tx.update("inodes", (0, "ghost"), {"perm": 1})
            tx.abort()

    def test_update_pk_column_rejected(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        with cluster.begin() as tx:
            with pytest.raises(SchemaError):
                tx.update("inodes", (0, "f"), {"name": "g"})
            tx.abort()

    def test_delete(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        with cluster.begin() as tx:
            assert tx.delete("inodes", (0, "f")) is None  # tells nothing
            assert tx.read("inodes", (0, "f")) is None  # own write visible
        assert cluster.table_size("inodes") == 0
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "f")) is None

    def test_delete_missing(self, cluster):
        with cluster.begin() as tx:
            with pytest.raises(NoSuchRowError):
                tx.delete("inodes", (0, "ghost"))
            tx.abort()
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        with cluster.begin() as tx:  # a no-op that buffers nothing
            assert tx.delete("inodes", (0, "ghost"), must_exist=False) is None
            assert not tx._writes
        assert cluster.table_size("inodes") == 1

    def test_duplicate_insert_rejected(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        with cluster.begin() as tx:
            with pytest.raises(DuplicateKeyError):
                tx.insert("inodes", inode(0, "f", 2))
            tx.abort()

    def test_write_upserts(self, cluster):
        with cluster.begin() as tx:
            tx.write("inodes", inode(0, "f", 1))
        with cluster.begin() as tx:
            tx.write("inodes", inode(0, "f", 1, perm=0o600))
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "f"))["perm"] == 0o600

    def test_unknown_table(self, cluster):
        with cluster.begin() as tx:
            with pytest.raises(NoSuchTableError):
                tx.read("nope", (1,))
            tx.abort()


class TestTransactionSemantics:
    def test_read_your_own_writes(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
            row = tx.read("inodes", (0, "f"))
            assert row["inode_id"] == 1

    def test_buffered_writes_invisible_before_commit(self, cluster):
        tx1 = cluster.begin()
        tx1.insert("inodes", inode(0, "f", 1))
        tx2 = cluster.begin()
        assert tx2.read("inodes", (0, "f")) is None  # read-committed
        tx2.abort()
        tx1.commit()
        with cluster.begin() as tx3:
            assert tx3.read("inodes", (0, "f")) is not None

    def test_abort_discards_writes(self, cluster):
        tx = cluster.begin()
        tx.insert("inodes", inode(0, "f", 1))
        tx.abort()
        with cluster.begin() as tx2:
            assert tx2.read("inodes", (0, "f")) is None

    def test_context_manager_aborts_on_exception(self, cluster):
        with pytest.raises(RuntimeError):
            with cluster.begin() as tx:
                tx.insert("inodes", inode(0, "f", 1))
                raise RuntimeError("boom")
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "f")) is None

    def test_insert_delete_cancels(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
            tx.delete("inodes", (0, "f"))
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "f")) is None

    def test_delete_then_reinsert_in_tx(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        with cluster.begin() as tx:
            tx.delete("inodes", (0, "f"))
            tx.insert("inodes", inode(0, "f", 99))
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "f"))["inode_id"] == 99

    def test_update_after_insert_stays_insert(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
            tx.update("inodes", (0, "f"), {"perm": 0o777})
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "f"))["perm"] == 0o777

    def test_locked_read_serializes_writers(self, cluster):
        """Two increment transactions with X locks must not lose updates."""
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "ctr", 0, perm=0))
        n_threads, n_iters = 4, 25
        errors = []

        def incr():
            session = cluster.session()
            for _ in range(n_iters):
                def fn(tx):
                    row = tx.read("inodes", (0, "ctr"), lock=LockMode.EXCLUSIVE)
                    tx.update("inodes", (0, "ctr"), {"perm": row["perm"] + 1})
                try:
                    session.run(fn, retries=50)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

        threads = [threading.Thread(target=incr) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "ctr"))["perm"] == n_threads * n_iters


class TestScans:
    def fill_dir(self, cluster, parent_id, n):
        with cluster.begin() as tx:
            for i in range(n):
                tx.insert("inodes", inode(parent_id, f"f{i}", 100 * parent_id + i))

    def test_ppis_returns_only_partition_rows(self, cluster):
        self.fill_dir(cluster, 1, 5)
        self.fill_dir(cluster, 2, 3)
        with cluster.begin() as tx:
            rows = tx.ppis("inodes", {"parent_id": 1})
        assert len(rows) == 5
        assert all(r["parent_id"] == 1 for r in rows)

    def test_ppis_touches_single_partition(self, cluster):
        self.fill_dir(cluster, 1, 5)
        tx = cluster.begin()
        tx.ppis("inodes", {"parent_id": 1})
        event = tx.stats.events[-1]
        tx.abort()
        assert event.kind is AccessKind.PPIS
        assert len(event.partitions) == 1

    def test_ppis_with_predicate_and_projection(self, cluster):
        self.fill_dir(cluster, 1, 10)
        with cluster.begin() as tx:
            rows = tx.ppis("inodes", {"parent_id": 1},
                           predicate=lambda r: r["inode_id"] % 2 == 0,
                           columns=("inode_id",))
        assert len(rows) == 5
        assert all(set(r) == {"inode_id"} for r in rows)

    def test_ppis_sees_own_buffered_writes(self, cluster):
        self.fill_dir(cluster, 1, 2)
        with cluster.begin() as tx:
            tx.insert("inodes", inode(1, "new", 999))
            tx.delete("inodes", (1, "f0"))
            rows = tx.ppis("inodes", {"parent_id": 1})
            names = {r["name"] for r in rows}
        assert names == {"f1", "new"}

    def test_index_scan_touches_all_partitions(self, cluster):
        self.fill_dir(cluster, 1, 3)
        tx = cluster.begin()
        rows = tx.index_scan("inodes", "by_inode", (101,))
        event = tx.stats.events[-1]
        tx.abort()
        assert len(rows) == 1 and rows[0]["name"] == "f1"
        assert event.kind is AccessKind.INDEX_SCAN
        assert len(event.partitions) == cluster.config.num_partitions

    def test_full_scan(self, cluster):
        self.fill_dir(cluster, 1, 4)
        self.fill_dir(cluster, 2, 6)
        with cluster.begin() as tx:
            rows = tx.full_scan("inodes")
        assert len(rows) == 10

    def test_locked_ppis_takes_row_locks(self, cluster):
        self.fill_dir(cluster, 1, 3)
        tx = cluster.begin()
        tx.ppis("inodes", {"parent_id": 1}, lock=LockMode.EXCLUSIVE)
        held = cluster._locks.held_keys(tx)
        assert len(held) == 3
        tx.abort()


    def test_locked_ppis_batch_is_one_ascending_lock_batch(self, cluster,
                                                           monkeypatch):
        """Whatever order the scans come in, the lock manager sees their
        candidates once, as one ascending (table, pk) sequence."""
        self.fill_dir(cluster, 1, 3)
        self.fill_dir(cluster, 2, 2)
        for block_id in (7, 4):  # stored in this order, locked in pk order
            with cluster.begin() as tx:
                tx.insert("blocks", dict(inode_id=5, block_id=block_id,
                                         size=1))
        batches = []
        real = cluster._locks.acquire_many

        def spy(owner, keys, mode, **kwargs):
            batches.append((list(keys), mode))
            return real(owner, batches[-1][0], mode, **kwargs)

        monkeypatch.setattr(cluster._locks, "acquire_many", spy)
        tx = cluster.begin()
        got = tx.ppis_batch(
            [("inodes", {"parent_id": 2}), ("blocks", {"inode_id": 5}),
             ("inodes", {"parent_id": 1}), ("inodes", {"parent_id": 2})],
            lock=LockMode.EXCLUSIVE)
        assert [len(rows) for rows in got] == [2, 2, 3, 2]
        assert [r["block_id"] for r in got[1]] == [4, 7]  # pk order
        [(keys, mode)] = batches
        assert mode is LockMode.EXCLUSIVE
        assert keys == sorted(set(keys)) and len(keys) == 7
        assert keys[0][0] == "blocks" and keys[-1] == ("inodes", (2, "f1"))
        assert set(keys) == set(cluster._locks.held_keys(tx))
        # rows locked: the per-scan candidates (parent 2 twice) plus the
        # locked event's rows, as the same four single scans would count
        assert tx.stats.rows_locked == 9 + 9
        tx.commit()
        assert cluster._locks.lock_table_size() == 0


class TestAccessStats:
    def test_pk_read_is_one_round_trip(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        tx = cluster.begin()
        tx.read("inodes", (0, "f"))
        assert tx.stats.round_trips == 1
        assert tx.stats.count(AccessKind.PK) == 1
        tx.abort()

    def test_batched_read_is_one_round_trip(self, cluster):
        with cluster.begin() as tx:
            for i in range(8):
                tx.insert("inodes", inode(i, "x", i))
        tx = cluster.begin()
        rows = tx.read_batch("inodes", [(i, "x") for i in range(8)])
        assert all(r is not None for r in rows)
        assert tx.stats.count(AccessKind.BATCH_PK) == 1
        assert tx.stats.round_trips == 1
        tx.abort()

    def test_commit_records_write_batch_and_commit(self, cluster):
        tx = cluster.begin()
        tx.insert("inodes", inode(0, "f", 1))
        tx.insert("inodes", inode(0, "g", 2))
        tx.commit()
        kinds = [e.kind for e in tx.stats.events]
        assert kinds.count(AccessKind.COMMIT) == 1
        write_events = [e for e in tx.stats.events if e.write]
        assert len(write_events) == 1 and write_events[0].rows == 2

    def test_empty_commit_has_no_events(self, cluster):
        tx = cluster.begin()
        tx.commit()
        assert tx.stats.round_trips == 0

    def test_expensive_scan_flag(self, cluster):
        tx = cluster.begin()
        tx.full_scan("inodes")
        assert tx.stats.uses_expensive_scans
        tx.abort()

    def test_distribution_aware_hint_places_coordinator(self, cluster):
        pid = cluster.partition_for_values("inodes", {"parent_id": 42})
        expected_node = cluster._primaries[pid]
        tx = cluster.begin(hint=("inodes", {"parent_id": 42}))
        assert tx.coordinator == expected_node
        tx.insert("inodes", inode(42, "f", 7))
        tx.commit()
        # the PK write batch should have been coordinator-local
        write_events = [e for e in tx.stats.events if e.write]
        assert write_events[0].coordinator_local

    def test_session_accumulates_stats(self, cluster):
        session = cluster.session()
        session.run(lambda tx: tx.insert("inodes", inode(0, "a", 1)))
        session.run(lambda tx: tx.read("inodes", (0, "a")))
        assert session.stats.count(AccessKind.PK) == 1
        assert session.stats.count(AccessKind.COMMIT) >= 1
        stats = session.reset_stats()
        assert stats.round_trips > 0
        assert session.stats.round_trips == 0
