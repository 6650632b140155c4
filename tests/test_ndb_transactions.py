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

    @pytest.mark.parametrize("reinsert", ["insert", "write"])
    def test_delete_reinsert_delete_deletes(self, cluster, reinsert):
        """A re-insert after a delete updates the committed row, so a
        second delete deletes it rather than cancelling the re-insert."""
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        with cluster.begin() as tx:
            tx.delete("inodes", (0, "f"))
            getattr(tx, reinsert)("inodes", inode(0, "f", 99))
            tx.delete("inodes", (0, "f"))
            assert tx.read("inodes", (0, "f")) is None
        with cluster.begin() as tx:
            assert tx.read("inodes", (0, "f")) is None

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
        # rows locked: the per-scan candidates (parent 2 twice), as the
        # same four single scans would count
        assert tx.stats.rows_locked == 9
        tx.commit()
        assert cluster._locks.lock_table_size() == 0

    @pytest.mark.parametrize("lock,even,expected,locked", [
        # unlocked: shard by shard, each shard's committed rows in index
        # order, then that shard's buffered rows in write order
        (LockMode.READ_COMMITTED, False,
         [(0, 0), (3, 3), (8, 8), (7, 7), (21, 7), (2, 102), (9, 9),
          (6, 6), (20, 20), (1, 1), (10, 10)], 0),
        (LockMode.READ_COMMITTED, True,
         [(0, 0), (8, 8), (2, 102), (6, 6), (20, 20), (10, 10)], 0),
        # locked: every committed candidate in pk order, then the
        # buffered rows in write order; only candidates are locked
        (LockMode.SHARED, False,
         [(0, 0), (1, 1), (2, 102), (3, 3), (6, 6), (7, 7), (8, 8),
          (9, 9), (10, 10), (20, 20), (21, 7)], 10),
        (LockMode.SHARED, True,
         [(0, 0), (2, 102), (6, 6), (8, 8), (10, 10), (20, 20)], 5),
    ])
    def test_all_shard_index_scan_merges_buffered_writes(
            self, cluster, lock, even, expected, locked):
        """An index scan over every shard inside a transaction that has
        inserted, updated (in and out of the index key) and deleted rows
        of the table: the exact rows, their order and the rows locked."""
        cluster.create_table(TableSchema(
            name="tagged", columns=("k", "tag", "v"), primary_key=("k",),
            indexes={"by_tag": ("tag",)}))
        for k in range(12):  # one row per transaction: no lock order
            with cluster.begin() as tx:
                tx.insert("tagged", {"k": k, "tag": "a" if k < 10 else "b",
                                     "v": k})
        tx = cluster.begin()  # writes in pk order, then the scan's locks
        tx.update("tagged", (2,), {"v": 102})
        tx.update("tagged", (4,), {"tag": "b"})  # leaves the index key
        tx.delete("tagged", (5,))
        tx.update("tagged", (10,), {"tag": "a"})  # joins it
        tx.insert("tagged", {"k": 20, "tag": "a", "v": 20})
        tx.insert("tagged", {"k": 21, "tag": "a", "v": 7})
        tx.insert("tagged", {"k": 22, "tag": "b", "v": 22})
        before = tx.stats.rows_locked
        rows = tx.index_scan(
            "tagged", "by_tag", ("a",), lock=lock,
            predicate=(lambda row: row["v"] % 2 == 0) if even else None)
        assert [(row["k"], row["v"]) for row in rows] == expected
        assert tx.stats.rows_locked - before == locked
        event = tx.stats.events[-1]
        assert event.kind is AccessKind.INDEX_SCAN
        assert event.rows == len(expected)
        assert event.locked is (lock is not LockMode.READ_COMMITTED)
        tx.abort()
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
        assert session.stats.count(AccessKind.COMMIT) >= 1
        inserted = session.stats
        session.run(lambda tx: tx.read("inodes", (0, "a")))
        # the session holds its latest run's stats, a fresh object
        assert session.stats.count(AccessKind.PK) == 1
        assert session.stats.count(AccessKind.COMMIT) == 0
        assert inserted.round_trips > 0 and inserted is not session.stats


def stored(cluster, table, pk):
    """Each live replica's stored row object for ``pk``."""
    pid = cluster.partition_of(table, pk)
    return [cluster.datanodes[node].fragment(table, pid).peek(pk)
            for node in cluster.live_replicas(pid)]


class TestRowOwnership:
    """A committed row is one object, shared by every live replica and
    the commit log's record; rows cross the engine's edge only as
    copies."""

    def test_replicas_store_the_logged_image(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        [insert] = cluster.commit_log[-1].writes
        replicas = stored(cluster, "inodes", (0, "f"))
        assert len(replicas) == 2
        assert all(row is insert.after for row in replicas)
        with cluster.begin() as tx:
            tx.update("inodes", (0, "f"), {"perm": 0o600})
        [update] = cluster.commit_log[-1].writes
        assert update.before is insert.after
        assert all(row is update.after
                   for row in stored(cluster, "inodes", (0, "f")))
        with cluster.begin() as tx:
            tx.delete("inodes", (0, "f"))
        [delete] = cluster.commit_log[-1].writes
        assert delete.before is update.after and delete.after is None
        assert stored(cluster, "inodes", (0, "f")) == [None, None]

    def test_rows_handed_out_are_copies(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1))
        [logged] = cluster.commit_log[-1].writes
        image = dict(logged.after)
        with cluster.begin() as tx:
            handed_out = [tx.read("inodes", (0, "f")),
                          *tx.read_batch("inodes", [(0, "f")]),
                          *tx.ppis("inodes", {"parent_id": 0}),
                          *tx.ppis("inodes", {"parent_id": 0},
                                   lock=LockMode.SHARED),
                          *tx.index_scan("inodes", "by_inode", [1]),
                          *tx.full_scan("inodes")]
            for row in handed_out:
                row["perm"] = 0
        assert len(handed_out) == 6
        assert logged.after == image
        assert stored(cluster, "inodes", (0, "f")) == [image, image]

    def test_callers_dicts_are_copied(self, cluster):
        row, upsert, changes = inode(0, "f", 1), inode(0, "g", 2), {"perm": 1}
        with cluster.begin() as tx:
            tx.insert("inodes", row)
            tx.write("inodes", upsert)
            row["perm"] = upsert["perm"] = 0
            tx.read("inodes", (0, "f"))["perm"] = 0   # the buffered row's copy
            tx.ppis("inodes", {"parent_id": 0})[1]["perm"] = 0
        assert ([w.after for w in cluster.commit_log[-1].writes]
                == [inode(0, "f", 1), inode(0, "g", 2)])
        with cluster.begin() as tx:
            tx.update("inodes", (0, "f"), changes)
            changes["perm"] = 0
        assert cluster.commit_log[-1].writes[0].after == inode(0, "f", 1, perm=1)
        assert stored(cluster, "inodes", (0, "f")) == [inode(0, "f", 1, perm=1)] * 2
        assert stored(cluster, "inodes", (0, "g")) == [inode(0, "g", 2)] * 2

    def test_a_restarted_replica_shares_the_survivors_rows(self, cluster):
        with cluster.begin() as tx:
            for i in range(20):
                tx.insert("inodes", inode(i % 4, f"f{i}", i))
        cluster.kill_node(0)
        with cluster.begin() as tx:  # committed while node 0 is down
            tx.update("inodes", (1, "f1"), {"perm": 0o600})
        cluster.restart_node(0)
        restarted = {pid: frag for (table, pid), frag
                     in cluster.datanodes[0].fragments.items()
                     if table == "inodes"}
        assert any(len(frag) for frag in restarted.values())
        for pid, frag in restarted.items():
            survivor = next(node for node in cluster.live_replicas(pid)
                            if node != 0)
            source = cluster.datanodes[survivor].fragment("inodes", pid)
            assert list(frag.snapshot()) == list(source.snapshot())
            for pk in source.snapshot():
                assert frag.peek(pk) is source.peek(pk)
        for i in range(20):
            with cluster.begin() as tx:
                tx.update("inodes", (i % 4, f"f{i}"), {"perm": i})
            [update] = cluster.commit_log[-1].writes
            replicas = stored(cluster, "inodes", (i % 4, f"f{i}"))
            assert len(replicas) == 2
            assert all(row is update.after for row in replicas)


class TestRowHistory:
    """Undo, redo and replica restore over images the log shares with
    the replicas."""

    def perms(self, cluster):
        return [row and row["perm"]
                for row in stored(cluster, "inodes", (0, "f"))]

    def test_log_images_survive_recovery_and_restart(self, cluster):
        with cluster.begin() as tx:
            tx.insert("inodes", inode(0, "f", 1, perm=1))
        cluster.complete_epoch()                     # epoch 1 is durable
        with cluster.begin() as tx:
            tx.update("inodes", (0, "f"), {"perm": 2})
        cluster.local_checkpoint()                   # holds perm=2
        with cluster.begin() as tx:
            tx.delete("inodes", (0, "f"))
        writes = [rec.writes[0] for rec in cluster.commit_log]
        assert [w.before and w.before["perm"] for w in writes] == [None, 1, 2]
        assert [w.after and w.after["perm"] for w in writes] == [1, 2, None]
        # the checkpointed update is undone, the delete is lost
        assert cluster.crash_and_recover() == 1
        assert self.perms(cluster) == [1, 1]
        # a second crash must not bring the undone update back from the
        # checkpoint
        assert cluster.crash_and_recover() == 1
        assert self.perms(cluster) == [1, 1]
        with cluster.begin() as tx:
            tx.update("inodes", (0, "f"), {"perm": 3})
        cluster.complete_epoch()
        assert cluster.crash_and_recover() == 2      # redo
        assert self.perms(cluster) == [3, 3]
        pid = cluster.partition_of("inodes", (0, "f"))
        primary = cluster.live_replicas(pid)[0]
        cluster.kill_node(primary)
        cluster.restart_node(primary)                # copies from the peer
        assert self.perms(cluster) == [3, 3]
        with cluster.begin() as tx:
            tx.update("inodes", (0, "f"), {"perm": 4})
        [update] = cluster.commit_log[-1].writes
        assert update.before["perm"] == 3
        assert all(row is update.after
                   for row in stored(cluster, "inodes", (0, "f")))
        assert self.perms(cluster) == [4, 4]
