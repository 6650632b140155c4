"""Execute(Commit): what rides the resolve's batched read, and what does not.

A warm ``stat``/``read``/``ls`` ships the scans keyed by the hinted last
inode and its own commit with the batched PK read of the path
(``read_batch(scans=, commit=)``). These tests pin what has to stay true
when it does: the locks of the path are held before any riding scan
reads (§5.2.1), rows that rode a hint found stale are never used, a
directory whose listing cannot be pruned ships nothing, and an error
found after the commit rode is still the operation's error — on the
embedded engine and behind an ndb-server alike.

The lock phase is that ONE read for every operation, not only the warm
reads: a create locks the *computed* key of the name it is about to
insert in the same batch as its hinted parent, a file this namenode has
not seen yet gets its scans from the resolver right after the batch, and
every operation that scans a file's rows takes them from the resolve.
"""

import threading
import time

import pytest

from repro.analysis.budgets import budget_for
from repro.errors import (
    FileAlreadyExistsError,
    QuotaExceededError,
    SubtreeLockedError,
)
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.hopsfs import quota as quota_mod
from repro.hopsfs import schema as fs_schema
from repro.hopsfs.tx import StalePathHintError
from repro.ndb import AccessKind, LockMode, NDBConfig
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
        yield fs, fs.driver, lambda: 0
        return
    from repro.dal import RemoteDriver
    from repro.rpc import NDBServer

    with NDBServer(config=NDB) as server:
        driver = RemoteDriver(server.host, server.port, timeout=10.0)
        try:
            fs = HopsFSCluster(num_namenodes=2, num_datanodes=3,
                               driver=driver, config=config)
            yield (fs, server.cluster,
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
    with nn.recording() as stats:
        result = fn()
    return result, stats


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
        with nn2.recording() as stats:
            with pytest.raises(SubtreeLockedError):
                op()
        assert stats.round_trips == 1, name  # it rode, then raised
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


# -- one lock phase: the computed last key --------------------------------------


def _kinds(stats):
    return [(e.kind, e.table) for e in stats.events]


def test_a_warm_create_or_mkdirs_reads_once_before_it_writes(deploy):
    """Parent hinted, name unknown: ONE locked BATCH_PK over the hinted
    prefix and the computed key of the name — no PK read of the missing
    component — then the writes: no ancestor's ``sub_tables`` bits ask
    for a quota read."""
    fs, cluster, open_txs = deploy
    nn = fs.namenodes[0]
    nn.mkdirs("/a/b")
    nn.create("/a/b/f0", client="c")  # id leases, hints: warm
    for op in (lambda: nn.create("/a/b/f1", client="c"),
               lambda: nn.mkdirs("/a/b/d1")):
        _result, stats = _op_stats(nn, op)
        resolve, *rest = stats.events
        assert (resolve.kind, resolve.table) == (AccessKind.BATCH_PK,
                                                 "inodes")
        assert resolve.locked and len(resolve.partitions) == 3
        assert resolve.rows == 2  # /a, /a/b; the third key is a future row
        assert stats.count(AccessKind.PK) == 0
        assert [e.table for e in rest if e.table != "*"] == []
    assert nn.get_file_info("/a/b/f1") is not None
    assert nn.get_file_info("/a/b/d1").is_dir
    assert _nothing_left(cluster, open_txs)


def test_two_namenodes_racing_one_name_yield_one_winner(deploy):
    """Both X-lock the same computed key before either row exists: the
    loser reads the winner's row under its lock — ``FileAlreadyExists``,
    never a duplicate key found at commit."""
    fs, cluster, open_txs = deploy
    nn1, nn2 = fs.namenodes
    nn1.mkdirs("/r")
    nn2.get_file_info("/r")
    for i in range(6):
        barrier = threading.Barrier(2)
        outcomes = []

        def racer(nn, path=f"/r/f{i}", barrier=barrier, outcomes=outcomes):
            barrier.wait()
            try:
                outcomes.append(nn.create(path, client=f"c{nn.nn_id}",
                                          overwrite=False).inode_id)
            except Exception as exc:  # noqa: BLE001 - judged below
                outcomes.append(exc)

        threads = [threading.Thread(target=racer, args=(nn,))
                   for nn in (nn1, nn2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        won = [o for o in outcomes if isinstance(o, int)]
        lost = [o for o in outcomes if not isinstance(o, int)]
        assert len(won) == 1 and len(lost) == 1, outcomes
        assert isinstance(lost[0], FileAlreadyExistsError), outcomes
        assert nn1.get_file_info(f"/r/f{i}").inode_id == won[0]
    assert _nothing_left(cluster, open_txs)


def test_a_parent_hint_stale_under_a_computed_last_key_retries_once(deploy):
    """nn1 knows ``/d`` by an id that no longer exists: the key it
    computes for ``/d/f`` hangs off the dead id and is X-locked in the
    same batch that finds ``/d`` changed — abort, repair, retry once."""
    fs, cluster, open_txs = deploy
    nn1, nn2 = fs.namenodes
    nn2.mkdirs("/d")
    old_id = nn1.get_file_info("/d").inode_id  # nn1 caches /d
    assert nn2.delete("/d")
    nn2.mkdirs("/d")
    new_id = nn2.get_file_info("/d").inode_id
    assert new_id != old_id
    assert nn1.hint_cache.get(fs_schema.ROOT_ID, "d").inode_id == old_id
    retries = _retries(fs)

    created = nn1.create("/d/f", client="c", create_parents=False)

    assert _retries(fs) - retries == 1
    row = fs.driver.session().run(lambda tx: tx.index_scan(
        "inodes", "by_id", (created.inode_id,)))[0]
    assert (row["parent_id"], row["name"]) == (new_id, "f")
    assert nn1.hint_cache.get(fs_schema.ROOT_ID, "d").inode_id == new_id
    assert nn2.get_file_info("/d/f").inode_id == created.inode_id
    assert _nothing_left(cluster, open_txs)


def test_a_file_this_namenode_has_not_seen_is_scanned_by_the_resolver(deploy):
    """Prefix hinted, last not: one BATCH_PK on the computed key, then the
    file's scans in one PPIS batch — issued by the resolver, the op has
    no fallback of its own — and the row is learned: the next read rides."""
    fs, cluster, open_txs = deploy
    nn1, nn2 = fs.namenodes
    _file_with_blocks(fs, "/d/f")
    parent_id = nn1.get_file_info("/d").inode_id
    nn2.get_file_info("/d")
    nn2.hint_cache.invalidate(parent_id, "f")

    first, stats = _op_stats(nn2, lambda: nn2.get_block_locations("/d/f"))

    assert _kinds(stats) == [(AccessKind.BATCH_PK, "inodes"),
                             (AccessKind.PPIS, "blocks+replicas")]
    assert stats.events[0].locked and not stats.events[1].locked
    assert len(first.blocks) == 1 and first.blocks[0].datanodes
    again, stats = _op_stats(nn2, lambda: nn2.get_block_locations("/d/f"))
    assert _kinds(stats) == [(AccessKind.BATCH_PK, "inodes+blocks+replicas")]
    assert again == first == nn1.get_block_locations("/d/f")
    assert _nothing_left(cluster, open_txs)


# -- every op that scans a file's rows takes them from the resolve ---------------


@pytest.fixture(params=["ndb", "memory", "process"])
def any_driver(request):
    config = HopsFSConfig(clock=ManualClock())
    if request.param == "ndb":
        yield HopsFSCluster(num_namenodes=2, num_datanodes=3, config=config,
                            ndb_config=NDB)
    elif request.param == "memory":
        from repro.dal import MemoryDriver

        yield HopsFSCluster(num_namenodes=2, num_datanodes=3, config=config,
                            driver=MemoryDriver())
    else:
        from repro.dal import RemoteDriver
        from repro.rpc import NDBServer

        with NDBServer(config=NDB) as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            try:
                yield HopsFSCluster(num_namenodes=2, num_datanodes=3,
                                    driver=driver, config=config)
            finally:
                driver.close()


def test_the_joined_ops_return_what_they_returned(any_driver):
    """``add_block``, ``complete``, ``append_file``, ``set_replication``
    and ``get_xattrs`` read their block/replica/xattr rows off the
    resolve: same results, no scan of their own when the file is known,
    one resolver-issued scan batch when it is not."""
    fs = any_driver
    nn, other = fs.namenodes

    def warm(op_name, fn):
        result, stats = _op_stats(nn, fn)
        assert stats.count(AccessKind.PPIS) == 0, op_name
        assert stats.round_trips == budget_for(op_name).cost.evaluate(), (
            op_name)
        return result

    nn.mkdirs("/d")
    nn.create("/d/f", client="c", replication=2)
    nn.set_xattr("/d/f", "user.k", "v")
    b0 = warm("add_block", lambda: nn.add_block("/d/f", "c"))
    assert b0.index == 0 and len(b0.datanodes) == 2
    # an allocated block no datanode has reported: not closable yet
    closed, stats = _op_stats(nn, lambda: nn.complete("/d/f", "c"))
    assert closed is False and stats.round_trips == 1  # the resolve alone
    for dn_id in b0.datanodes:
        nn.block_received(dn_id, b0.block_id, 5)
    b1 = warm("add_block", lambda: nn.add_block("/d/f", "c"))
    assert b1.index == 1 and b1.block_id != b0.block_id
    nn.block_received(b1.datanodes[0], b1.block_id, 3)
    assert nn.complete("/d/f", "c") is True
    status = nn.get_file_info("/d/f")
    assert status.size == 8 and not status.under_construction

    reopened = warm("append", lambda: nn.append_file("/d/f", "c2"))
    # the last block, with its replicas only — b0's two are filtered out
    assert (reopened.block_id, reopened.index, reopened.size) == (
        b1.block_id, 1, 3)
    assert reopened.datanodes == (b1.datanodes[0],)
    assert nn.complete("/d/f", "c2") is True

    assert nn.set_replication("/d/f", 3) is True
    assert nn.get_file_info("/d/f").replication == 3
    assert warm("get_xattrs", lambda: nn.get_xattrs("/d/f")) == {
        "user.k": "v"}

    # the other namenode knows the directory but not the file
    other.get_file_info("/d")
    xattrs, stats = _op_stats(other, lambda: other.get_xattrs("/d/f"))
    assert xattrs == {"user.k": "v"}
    assert _kinds(stats) == [(AccessKind.BATCH_PK, "inodes"),
                             (AccessKind.PPIS, "xattrs")]
    assert other.append_file("/d/f", "c3").block_id == b1.block_id
    # an empty file reopens with no block to hand back
    nn.create("/d/empty", client="c")
    assert nn.complete("/d/empty", "c") is True
    assert nn.append_file("/d/empty", "c") is None


# -- the quota read: only the ancestors whose SUB_QUOTA bit is set --------------


def _quota_reads(stats):
    return [e for e in stats.events if "quotas" in e.table.split("+")]


def test_no_quota_anywhere_is_no_quota_read(any_driver):
    """No ancestor's ``sub_tables`` bits say a quota row can exist: a
    warm create, mkdirs, file delete and rename read no ``quotas``."""
    nn = any_driver.namenodes[0]
    nn.mkdirs("/a/b")
    for i in range(3):
        nn.create(f"/a/b/f{i}", client="c")
    nn.rename("/a/b/f0", "/a/b/g0")
    nn.delete("/a/b/g0")  # every op (+ id leases, hints) warm
    ops = {"create": lambda: nn.create("/a/b/new", client="c"),
           "mkdirs": lambda: nn.mkdirs("/a/b/dir"),
           "delete": lambda: nn.delete("/a/b/f1"),
           "rename": lambda: nn.rename("/a/b/f2", "/a/b/g2")}
    for name, op in ops.items():
        _result, stats = _op_stats(nn, op)
        assert _quota_reads(stats) == [], name
        if name != "delete":  # its budget bounds a directory's probe too
            assert stats.round_trips == budget_for(name).cost.evaluate(), name


def test_a_create_reads_the_quotas_of_its_flagged_ancestors_only(
        any_driver, monkeypatch):
    """Under ``/outer`` and ``/outer/inner``, both with a quota, a create
    of ``/outer/inner/x/f`` reads one ``quotas`` batch keyed by exactly
    the two flagged ids — not the root's, not ``x``'s — and is refused
    over the quota, on the namenode that set it and on the other one,
    whose hints predate the bits: its resolve reads the rows that carry
    them."""
    fs = any_driver
    nn0, nn1 = fs.namenodes
    for path in ("/outer", "/outer/inner", "/outer/inner/x"):
        nn0.mkdirs(path)
    nn1.get_file_info("/outer/inner/x")
    nn0.set_quota("/outer", 100, None)
    nn0.set_quota("/outer/inner", 4, None)  # inner, x and two files
    flagged = [nn0.get_file_info(p).inode_id
               for p in ("/outer", "/outer/inner")]
    keyed = []
    real = quota_mod.enforce_and_queue

    def spy(tx, ancestor_ids, *args, **kwargs):
        keyed.append(list(ancestor_ids))
        return real(tx, keyed[-1], *args, **kwargs)

    monkeypatch.setattr(quota_mod, "enforce_and_queue", spy)
    for nn in (nn1, nn0):
        keyed.clear()
        _status, stats = _op_stats(
            nn, lambda nn=nn: nn.create(f"/outer/inner/x/f{nn.nn_id}",
                                        client="c"))
        assert keyed == [flagged]
        assert [(e.kind, e.rows) for e in _quota_reads(stats)] == [
            (AccessKind.BATCH_PK, 2)]
    fs.tick()  # the leader folds the two creates into the usage
    for nn in (nn1, nn0):
        with pytest.raises(QuotaExceededError):
            nn.create("/outer/inner/x/over", client="c")
    assert nn0.get_file_info("/outer/inner/x/over") is None
