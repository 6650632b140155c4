"""Execute(Commit): what rides the resolve's batched read, and what does not.

A warm ``stat``/``read``/``ls`` ships the scans keyed by the hinted last
inode and its own commit with the batched PK read of the path
(``read_batch(scans=, commit=)``). These tests pin what has to stay true
when it does: the locks of the path are held before any riding scan
reads (§5.2.1), rows that rode a hint found stale are never used, a
directory whose listing cannot be pruned ships nothing, and an error
found after the commit rode is still the operation's error — on the
embedded engine and behind an ndb-server alike.
"""

import threading
import time

import pytest

from repro.errors import SubtreeLockedError
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.hopsfs import schema as fs_schema
from repro.hopsfs.tx import StalePathHintError
from repro.ndb import AccessKind, LockMode, NDBConfig
from repro.ndb.stats import AccessStats
from repro.util.clock import ManualClock

NDB = NDBConfig(num_datanodes=4, replication=2, lock_timeout=2.0)


@pytest.fixture(params=["ndb", "process"])
def deploy(request):
    """``(fs, engine cluster, open server transactions)`` per deployment."""
    config = HopsFSConfig(clock=ManualClock(), subtree_batch_size=8,
                          subtree_parallelism=2)
    if request.param == "ndb":
        fs = HopsFSCluster(num_namenodes=2, num_datanodes=3, config=config,
                           ndb_config=NDB)
        yield fs, fs.driver.cluster, lambda: 0
        return
    from repro.dal import RemoteDriver
    from repro.rpc import NDBServer

    with NDBServer(config=NDB) as server:
        driver = RemoteDriver(server.host, server.port, timeout=10.0)
        try:
            fs = HopsFSCluster(num_namenodes=2, num_datanodes=3,
                               driver=driver, config=config)
            yield (fs, server.driver.cluster,
                   lambda: int(server.registry.get_gauge("rpc_open_txs")))
        finally:
            driver.close()


def _nothing_left(cluster, open_txs) -> bool:
    deadline = time.monotonic() + 2.0  # a one-way abort/commit may be in flight
    while time.monotonic() < deadline:
        if cluster._locks.lock_table_size() == 0 and open_txs() == 0:
            return True
        time.sleep(0.005)
    return False


def _op_stats(nn, fn):
    before, nn.stats = nn.stats, AccessStats()
    try:
        return fn(), nn.stats
    finally:
        nn.stats = before


def _retries(fs) -> float:
    return fs.driver.metrics_registry().counter(
        "ndb_tx_retries_total", reason=StalePathHintError.__name__).value


# -- (b) the path's locks are held before any riding scan reads -----------------


def test_a_riding_scan_reads_only_after_the_inode_lock_is_held(deploy):
    """A writer holding X on a file's inode adds a block and bumps
    ``size``; a concurrent warm read blocks on the lock and then sees the
    new size *with* the new block — never one without the other, which
    is what scanning before locking would return (old blocks scanned,
    then the wait, then the new inode row)."""
    fs, cluster, open_txs = deploy
    nn = fs.namenodes[0]
    fs.client("w").write_file("/d/f", b"x" * 10, replication=1)
    before = nn.get_block_locations("/d/f")  # warm: the next one rides
    assert before.file_size == 10 and len(before.blocks) == 1
    inode_id = nn.get_file_info("/d/f").inode_id

    writer = fs.driver.session().begin()
    parent_id = nn.get_file_info("/d").inode_id
    pk = (nn.hint_cache.get(parent_id, "f").part_key, parent_id, "f")
    assert writer.read("inodes", pk, lock=LockMode.EXCLUSIVE)["id"] == inode_id
    writer.insert("blocks", {"inode_id": inode_id, "block_id": 999_999,
                             "idx": 1, "size": 5, "gen_stamp": 1,
                             "state": "complete"})
    writer.update("inodes", pk, {"size": 15})

    got = []
    reader = threading.Thread(
        target=lambda: got.append(_op_stats(
            nn, lambda: nn.get_block_locations("/d/f"))))
    reader.start()
    time.sleep(0.15)
    assert reader.is_alive()  # waiting for the S lock on the inode
    writer.commit()
    reader.join(timeout=5.0)
    assert not reader.is_alive()
    [(located, stats)] = got
    assert located.file_size == 15
    assert [b.block_id for b in located.blocks][-1] == 999_999
    assert len(located.blocks) == 2
    # it was the riding read that waited: one round trip, one event
    assert stats.round_trips == 1
    assert stats.events[0].table == "inodes+blocks+replicas"
    assert _nothing_left(cluster, open_txs)


# -- (c) a hint found stale under the ride --------------------------------------


def _file_with_blocks(fs, path):
    status = fs.client("w").write_file(path, b"y" * 7, replication=1)
    return status.inode_id


def test_stale_hint_under_the_ride_retries_once_and_reads_the_new_file(deploy):
    fs, cluster, open_txs = deploy
    nn1, nn2 = fs.namenodes
    old_id = _file_with_blocks(fs, "/d/f")
    old = nn2.get_block_locations("/d/f")  # warm nn2: its next read rides
    parent_id = nn1.get_file_info("/d").inode_id
    part_key = nn2.hint_cache.get(parent_id, "f").part_key
    assert nn1.delete("/d/f")
    new_id = _file_with_blocks(fs, "/d/f")  # same pk, new inode, new block
    # the stale hint again, whichever namenode served the writes above
    nn2.hint_cache.put(parent_id, "f", old_id, part_key, False, False)
    assert new_id != old_id
    retries = _retries(fs)

    located, stats = _op_stats(nn2, lambda: nn2.get_block_locations("/d/f"))

    assert _retries(fs) - retries == 1  # exactly one StalePathHintError
    assert nn2.hint_cache.get(parent_id, "f").inode_id == new_id
    assert [b.block_id for b in located.blocks] != [
        b.block_id for b in old.blocks]
    assert located == nn1.get_block_locations("/d/f")
    # attempt 1: the ride, dropped; attempt 2: cold resolve + its own scan
    assert stats.events[0].table == "inodes+blocks+replicas"
    assert stats.events[-1].kind is AccessKind.PPIS
    assert _nothing_left(cluster, open_txs)


def test_rows_that_rode_a_stale_hint_are_not_used(deploy):
    """After a rename the old id still has blocks: the scans keyed by the
    stale hint *find rows* — the other file's — and must be dropped."""
    fs, cluster, open_txs = deploy
    nn1, nn2 = fs.namenodes
    _file_with_blocks(fs, "/d/f")
    moved = nn2.get_block_locations("/d/f")  # warm nn2 on the old id
    parent_id = nn1.get_file_info("/d").inode_id
    part_key = nn2.hint_cache.get(parent_id, "f").part_key
    assert nn1.rename("/d/f", "/d/g")
    _file_with_blocks(fs, "/d/f")
    nn2.hint_cache.put(parent_id, "f", nn1.get_file_info("/d/g").inode_id,
                       part_key, False, False)
    retries = _retries(fs)

    located, stats = _op_stats(nn2, lambda: nn2.get_block_locations("/d/f"))

    assert _retries(fs) - retries == 1
    rode = stats.events[0]
    assert rode.table == "inodes+blocks+replicas"
    assert rode.rows > 2  # the path's two rows *and* the moved file's
    assert {b.block_id for b in located.blocks}.isdisjoint(
        b.block_id for b in moved.blocks)
    assert located == nn1.get_block_locations("/d/f")
    assert nn2.get_block_locations("/d/g").blocks == moved.blocks
    assert _nothing_left(cluster, open_txs)


def test_a_hashed_directory_never_ships_a_pruned_scan(deploy):
    """``/top``'s children are hash-partitioned over every shard: the
    hint says so, nothing rides (not even the commit: the listing is
    still to be read), and the listing is the ``index_scan`` one."""
    fs, cluster, open_txs = deploy
    nn = fs.namenodes[0]
    for name in ("a", "b", "c"):
        nn.mkdirs(f"/top/{name}")
    nn.create("/top/file", client="c")
    assert nn.hint_cache.get(fs_schema.ROOT_ID, "top").children_random
    warm = nn.list_status("/top")

    listing, stats = _op_stats(nn, lambda: nn.list_status("/top"))

    assert [e.kind for e in stats.events] == [AccessKind.BATCH_PK,
                                              AccessKind.INDEX_SCAN]
    resolve = stats.events[0]
    assert resolve.table == "inodes" and len(resolve.partitions) == 1
    assert [entry.path for entry in listing.entries] == [
        "/top/a", "/top/b", "/top/c", "/top/file"]
    nn.hint_cache.clear()
    assert nn.list_status("/top") == listing == warm
    # one level down the children share a shard and the scan rides
    nn.mkdirs("/top/a/x")
    nn.create("/top/a/y", client="c")
    deep, stats = _op_stats(nn, lambda: nn.list_status("/top/a"))
    assert [e.kind for e in stats.events] == [AccessKind.BATCH_PK]
    assert len(stats.events[0].partitions) == 2 + 1
    assert [entry.path for entry in deep.entries] == ["/top/a/x", "/top/a/y"]
    assert _nothing_left(cluster, open_txs)


def test_listing_a_file_and_reading_a_directory_ride_with_no_scan(deploy):
    from repro.errors import IsDirectoryError_

    fs, cluster, open_txs = deploy
    nn = fs.namenodes[0]
    nn.mkdirs("/d/sub")
    nn.create("/d/sub/f", client="c")
    nn.get_file_info("/d/sub/f")
    listing, stats = _op_stats(nn, lambda: nn.list_status("/d/sub/f"))
    assert [entry.path for entry in listing.entries] == ["/d/sub/f"]
    assert stats.round_trips == 1 and len(stats.events[0].partitions) == 3
    with pytest.raises(IsDirectoryError_):
        nn.get_block_locations("/d/sub")
    assert _nothing_left(cluster, open_txs)


# -- errors found after the commit rode -----------------------------------------


def test_a_subtree_lock_found_after_a_riding_commit_is_still_raised(deploy):
    fs, cluster, open_txs = deploy
    nn1, nn2 = fs.namenodes
    nn1.mkdirs("/locked/sub")
    nn1.create("/locked/sub/f", client="c")
    ops = {
        "stat": lambda: nn2.get_file_info("/locked/sub/f"),
        "read": lambda: nn2.get_block_locations("/locked/sub/f"),
        "ls": lambda: nn2.list_status("/locked/sub"),
    }
    for op in ops.values():
        op()  # warm nn2's hints: the next ones ride
    ctx = nn1._subtree_begin("/locked", "delete")
    for name, op in ops.items():
        before, nn2.stats = nn2.stats, AccessStats()
        try:
            with pytest.raises(SubtreeLockedError):
                op()
            assert nn2.stats.round_trips == 1, name  # it rode, then raised
        finally:
            nn2.stats = before
        assert _nothing_left(cluster, open_txs), name
    nn1._subtree_release(ctx)
    assert ops["stat"]() is not None


def test_a_stale_subtree_lock_found_after_a_riding_commit_is_reclaimed(deploy):
    fs, cluster, open_txs = deploy
    victim, survivor = fs.namenodes
    survivor.mkdirs("/stuck")
    survivor.create("/stuck/f", client="c")
    survivor.get_file_info("/stuck/f")  # warm: the next stat rides
    victim._subtree_begin("/stuck", "delete")
    victim.kill()
    for _ in range(3):
        fs.tick_heartbeats()
    stale = survivor.metrics.counter("fs_op_stale_subtree_locks_total",
                                     op="stat").value

    assert survivor.get_file_info("/stuck/f") is not None

    assert survivor.metrics.counter("fs_op_stale_subtree_locks_total",
                                    op="stat").value - stale == 1
    row = fs.driver.session().run(lambda tx: tx.index_scan(
        "inodes", "by_parent", (fs_schema.ROOT_ID,)))[0]
    assert row["name"] == "stuck"
    assert row["subtree_lock_owner"] == fs_schema.NO_LOCK
    assert _nothing_left(cluster, open_txs)


# -- the ride on the memory driver ----------------------------------------------


def test_memory_driver_rides_the_same_way():
    from repro.dal import MemoryDriver

    fs = HopsFSCluster(num_namenodes=1, num_datanodes=3, driver=MemoryDriver(),
                       config=HopsFSConfig(clock=ManualClock()))
    nn = fs.namenodes[0]
    fs.client("w").write_file("/d/e/f", b"z" * 3, replication=1)
    nn.get_block_locations("/d/e/f")
    ops = {"stat": lambda: nn.get_file_info("/d/e/f"),
           "read": lambda: nn.get_block_locations("/d/e/f"),
           "ls": lambda: nn.list_status("/d/e")}
    tables = {"stat": "inodes", "read": "inodes+blocks+replicas",
              "ls": "inodes"}
    for name, op in ops.items():
        result, stats = _op_stats(nn, op)
        assert result is not None
        assert [(e.kind, e.table) for e in stats.events] == [
            (AccessKind.BATCH_PK, tables[name])], name
        assert not fs.driver._mutex._is_owned(), name
    assert nn.delete("/d/e/f")
    assert nn.list_status("/d/e").entries == []
