"""Tests for the subtree operations protocol (paper §6).

Covers locking, quiescing, batched bottom-up deletes, move/chmod/chown/
set-quota phase-3 semantics, namenode-failure consistency and the lazy
reclamation of stale subtree locks.
"""

import contextlib
import threading
import time

import pytest

from repro import faults
from repro.dal import MemoryDriver, RemoteDriver
from repro.errors import (
    FileNotFoundError_,
    InjectedFaultError,
    LockTimeoutError,
    NameNodeUnavailableError,
    SubtreeLockedError,
)
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.hopsfs import ops_subtree
from repro.hopsfs import schema as fs_schema
from repro.hopsfs.fsck import Fsck
from repro.ndb import LockMode, NDBCluster, NDBConfig
from repro.util.clock import ManualClock
from tests.conftest import at_subtree_stage, make_hopsfs


def build_tree(client, root="/tree", dirs=3, files_per_dir=5, depth=2):
    """Create a multi-level tree; returns (#dirs, #files) created."""
    total_dirs = total_files = 0
    paths = [root]
    for level in range(depth):
        next_paths = []
        for base in paths:
            for d in range(dirs):
                sub = f"{base}/d{level}_{d}"
                client.mkdirs(sub)
                total_dirs += 1
                for f in range(files_per_dir):
                    client.write_file(f"{sub}/f{f}", b"x")
                    total_files += 1
                next_paths.append(sub)
        paths = next_paths
    return total_dirs, total_files


def subtree_rows(fs, table="active_subtree_ops"):
    session = fs.driver.session()
    return session.run(lambda tx: tx.full_scan(table))


class TestSubtreeDelete:
    def test_deletes_everything(self, fs, client):
        dirs, files = build_tree(client, dirs=2, files_per_dir=3, depth=2)
        assert client.delete("/tree", recursive=True)
        assert not client.exists("/tree")
        # the root inode is cached/immutable and never stored (§4.2.1),
        # so a fully deleted namespace leaves zero inode rows
        assert fs.driver.table_size("inodes") == 0
        assert subtree_rows(fs) == []

    def test_no_leftover_metadata(self, fs, client):
        build_tree(client, dirs=2, files_per_dir=2, depth=1)
        client.delete("/tree", recursive=True)
        for table in ("blocks", "replicas", "leases", "urb", "prb"):
            assert fs.driver.table_size(table) == 0

    def test_uses_batched_transactions(self, fs, client):
        """More inodes than one batch: forces multiple phase-3 txs."""
        for i in range(20):  # batch size is 8 in the test fixture
            client.write_file(f"/big/f{i}", b"")
        assert client.delete("/big", recursive=True)
        assert fs.driver.table_size("inodes") == 0

    def test_concurrent_ops_blocked_then_resume(self, fs, client):
        """Inode ops hitting a subtree lock abort and retry (§6.3)."""
        client.create("/locked/f")
        nn = fs.any_namenode()
        ctx = nn._subtree_begin("/locked", "delete")
        with pytest.raises(SubtreeLockedError):
            nn.get_file_info("/locked/f")
        nn._subtree_release(ctx)
        assert nn.get_file_info("/locked/f") is not None

    def test_subtree_lock_blocks_nested_subtree_op(self, fs, client):
        client.create("/outer/inner/f")
        nn = fs.any_namenode()
        ctx = nn._subtree_begin("/outer", "delete")
        other = fs.namenodes[1]
        with pytest.raises(SubtreeLockedError):
            other._subtree_begin("/outer/inner", "delete")
        nn._subtree_release(ctx)

    def test_ancestor_subtree_op_blocked_by_descendant(self, fs, client):
        client.create("/outer/inner/f")
        nn = fs.any_namenode()
        ctx = nn._subtree_begin("/outer/inner", "delete")
        other = fs.namenodes[1]
        with pytest.raises(SubtreeLockedError):
            other._subtree_begin("/outer", "delete")
        nn._subtree_release(ctx)


class TestSubtreeLockedBackoff:
    """§6.3: a client held up by a subtree lock retries after a jittered
    exponential backoff drawn from its own seeded RNG."""

    @staticmethod
    def delays(seed):
        fs = make_hopsfs()
        client = fs.client("c", seed=seed)
        client.create("/locked/f")
        nn = fs.namenodes[0]
        ctx = nn._subtree_begin("/locked", "delete")
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            if len(slept) == 6:
                nn._subtree_release(ctx)

        client._sleep = sleep
        assert client.stat("/locked/f") is not None
        return slept

    def test_backoff_grows_from_two_ms_and_a_seed_replays(self):
        slept = self.delays(seed=7)
        assert len(slept) == 6
        for retry, delay in enumerate(slept):
            assert 0.0 <= delay <= 0.002 * 2 ** retry
        assert len(set(slept)) == 6  # jittered, not a fixed sleep
        assert self.delays(seed=7) == slept
        assert self.delays(seed=8) != slept


class TestSubtreeFailureHandling:
    def test_crash_mid_delete_keeps_namespace_connected(self, fs):
        """Post-order delete: a crash never orphans inodes (§6.2)."""
        client = fs.client("c", seed=1)
        build_tree(client, dirs=2, files_per_dir=4, depth=2)
        victim = fs.namenodes[0]

        def crash():
            victim.alive = False
            raise NameNodeUnavailableError("injected crash")

        with at_subtree_stage(victim, "after_delete_level_2", crash), \
                pytest.raises(NameNodeUnavailableError):
            victim.delete("/tree", recursive=True)
        # the subtree root row is still present and connected (delete goes
        # bottom-up); checked directly in the database because namenodes
        # still consider the lock owner alive at this point
        inodes = subtree_rows(fs, "inodes")
        assert any(r["name"] == "tree" and r["parent_id"] == 1
                   for r in inodes)
        # fail the dead namenode out of the membership view
        fs.tick_heartbeats()
        fs.tick_heartbeats()
        fs.tick_heartbeats()
        # now ordinary resolution reclaims the stale lock lazily
        survivor_client = fs.client("c2", seed=2)
        assert survivor_client.exists("/tree")
        # a re-submitted delete on another namenode finishes the job
        assert survivor_client.delete("/tree", recursive=True)
        assert not survivor_client.exists("/tree")
        assert fs.driver.table_size("inodes") == 0

    def test_stale_lock_reclaimed_lazily(self, fs, client):
        client.create("/stuck/f")
        victim = fs.namenodes[0]
        victim._subtree_begin("/stuck", "delete")
        victim.kill()
        fs.tick_heartbeats()
        fs.tick_heartbeats()
        fs.tick_heartbeats()
        # ordinary op through the flagged inode reclaims the lock (§6.2)
        other = fs.client("other")
        assert other.stat("/stuck/f") is not None
        rows = subtree_rows(fs)
        assert rows == []

    def test_live_lock_not_reclaimed(self, fs, client):
        client.create("/busy/f")
        nn = fs.namenodes[0]
        ctx = nn._subtree_begin("/busy", "delete")
        fs.tick_heartbeats()  # nn still alive and heartbeating
        other = fs.namenodes[1]
        with pytest.raises(SubtreeLockedError):
            other.get_file_info("/busy/f")
        nn._subtree_release(ctx)

    def test_failed_op_releases_lock(self, fs, client):
        client.create("/d/f")
        nn = fs.any_namenode()

        def boom():
            raise RuntimeError("injected")

        with at_subtree_stage(nn, "after_quiesce", boom), \
                pytest.raises(RuntimeError):
            nn.delete("/d", recursive=True)
        # lock was released by the error path; the op can run again
        assert nn.delete("/d", recursive=True)


def inode_pk(fs, name):
    [row] = [r for r in subtree_rows(fs, "inodes") if r["name"] == name]
    return (row["part_key"], row["parent_id"], row["name"])


def tree_names(node):
    """{directory name: sorted child names} of a quiesced in-memory tree."""
    out = {}
    stack = [node]
    while stack:
        node = stack.pop()
        if node.is_dir:
            out[node.name] = sorted(c.name for c in node.children)
            stack.extend(node.children)
    return out


def committed(nn, op):
    """Transactions of one ``_fs_op`` name that ran to their commit."""
    return int(nn.metrics.get_counter("fs_op_total", op=op) or 0)


class TestLevelQuiesce:
    """Phase 2 walks a level at a time: one transaction per group of at
    most ``subtree_batch_size`` directories (8 in the test fixture)."""

    def test_builds_the_same_tree_group_by_group(self, fs, client):
        for d in range(20):  # one level, three groups
            client.create(f"/x/y/wide/d{d:02}/f")
            client.create(f"/x/y/wide/d{d:02}/g")
        nn = fs.namenodes[0]
        ctx = nn._subtree_begin("/x/y/wide", "chown")
        nn._subtree_quiesce(ctx)
        assert committed(nn, "subtree_quiesce") == 1 + 3
        names = tree_names(ctx.tree)
        assert names.pop("wide") == [f"d{d:02}" for d in range(20)]
        assert names == {f"d{d:02}": ["f", "g"] for d in range(20)}
        assert fs.driver._locks.lock_table_size() == 0
        nn._subtree_release(ctx)

    def test_group_waits_out_an_in_flight_transaction(self, fs, client):
        """§6.1: a level's group is delayed by a transaction holding one
        file of one of its directories, and sees what it committed."""
        client.create("/x/y/t/a/f")
        client.create("/x/y/t/b/g")
        nn = fs.namenodes[0]
        pk = inode_pk(fs, "f")
        holder = fs.driver.session().begin()
        assert holder.read("inodes", pk, lock=LockMode.EXCLUSIVE)
        holder.update("inodes", pk, {"size": 42})
        ctx = nn._subtree_begin("/x/y/t", "chown")
        walker = threading.Thread(target=nn._subtree_quiesce, args=(ctx,))
        walker.start()
        time.sleep(0.15)
        assert walker.is_alive()  # level 1 ({a, b}) waits for the holder
        assert ctx.tree.children and not ctx.tree.children[0].children
        holder.commit()
        walker.join(timeout=5.0)
        assert not walker.is_alive()
        [f] = [c for d in ctx.tree.children for c in d.children
               if c.name == "f"]
        assert f.size == 42
        assert fs.driver._locks.lock_table_size() == 0
        nn._subtree_release(ctx)

    def test_group_times_out_retries_and_holds_nothing(self):
        fs = HopsFSCluster(
            num_namenodes=1, num_datanodes=3,
            config=HopsFSConfig(clock=ManualClock(), subtree_batch_size=8),
            ndb_config=NDBConfig(num_datanodes=4, replication=2,
                                 lock_timeout=0.05))
        nn = fs.namenodes[0]
        nn.create("/x/y/t/a/f", client="c")
        nn.create("/x/y/t/b/g", client="c")
        locks = fs.driver._locks
        holder = fs.driver.session().begin()
        assert holder.read("inodes", inode_pk(fs, "f"),
                           lock=LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            nn.chown_subtree("/x/y/t", "u", "g")
        # the transaction retry loop ran the whole group five times, and
        # every attempt gave back the rows it had locked before the wait
        assert nn.metrics.get_counter("fs_op_tx_retries_total",
                                      op="subtree_quiesce") == 5
        assert locks.lock_table_size() == 1  # the holder's
        holder.abort()
        assert locks.lock_table_size() == 0
        assert subtree_rows(fs) == []  # the failed op released its flag
        nn.chown_subtree("/x/y/t", "u", "g")
        assert nn.get_file_info("/x/y/t").owner == "u"

    #: a depth-1 name whose hashed part_key is 3 — the id ``/t/a`` gets
    #: in a fresh cluster (found by search; asserted below)
    FOREIGN = "foreign1636481"

    def test_foreign_row_sharing_the_partition_value(self, fs, client,
                                                     monkeypatch):
        """A top-level inode whose hashed ``part_key`` equals a quiesced
        directory's id rides the directory's scan: locked and released
        with the group, never taken for a child."""
        client.create("/t/a/f")
        client.create("/" + self.FOREIGN)
        nn = fs.namenodes[0]
        a_id = nn.get_file_info("/t/a").inode_id
        foreign_pk = inode_pk(fs, self.FOREIGN)
        assert foreign_pk[:2] == (a_id, fs_schema.ROOT_ID)
        locks = fs.driver._locks
        batches = []
        real = locks.acquire_many

        def spy(owner, keys, mode, **kwargs):
            batches.append(list(keys))
            return real(owner, batches[-1], mode, **kwargs)

        monkeypatch.setattr(locks, "acquire_many", spy)
        ctx = nn._subtree_begin("/t", "chown")
        batches.clear()
        nn._subtree_quiesce(ctx)
        assert ("inodes", foreign_pk) in batches[-1]
        assert tree_names(ctx.tree) == {"t": ["a"], "a": ["f"]}
        assert locks.lock_table_size() == 0
        nn._subtree_release(ctx)
        assert client.exists("/" + self.FOREIGN)


#: the engine's simulated round trip on the pooled path: a level's units
#: run on worker threads only when the DAL's round trips wait
WAITING = 0.0005


def wide_tree(**kwargs):
    """One namenode and ``/x/y/wide`` of 20 directories of one file: 3
    quiesce groups and 3 + 3 delete batches at batch size 8."""
    fs = make_hopsfs(num_namenodes=1, **kwargs)
    nn = fs.namenodes[0]
    for d in range(20):
        nn.create(f"/x/y/wide/d{d:02}/f", client="c")
    return fs, nn


class TestUnitsRunWhereWaitsOverlap:
    """A level's units run on worker threads only when the DAL's round
    trips wait, so that their waits overlap; otherwise threads would
    only take turns on the GIL, and the units run on the calling thread
    without a pool being built."""

    @staticmethod
    def delete_threads(monkeypatch, **kwargs):
        """Delete the wide tree; returns the thread each delete batch
        transaction began on, and the pools built."""
        _, nn = wide_tree(**kwargs)
        pools = []
        real = ops_subtree.ThreadPoolExecutor

        def build_pool(*args, **kw):
            pools.append(real(*args, **kw))
            return pools[-1]

        monkeypatch.setattr(ops_subtree, "ThreadPoolExecutor", build_pool)
        threads = []
        plan = faults.FaultPlan(seed=1)
        plan.add("hopsfs.op", match={"op": "subtree_delete_batch"},
                 action="call", callback="where", max_fires=None)
        with faults.installed(plan) as injector:
            injector.register("where",
                              lambda: threads.append(threading.get_ident()))
            assert nn.delete_subtree("/x/y/wide")
        assert len(threads) == 6
        return threads, pools

    def test_without_waits_every_unit_runs_on_the_caller(self, monkeypatch):
        threads, pools = self.delete_threads(monkeypatch)
        assert set(threads) == {threading.get_ident()}
        assert pools == []

    def test_with_waits_a_level_spreads_over_the_pool(self, monkeypatch):
        threads, pools = self.delete_threads(
            monkeypatch, network_delay=WAITING, subtree_parallelism=2)
        assert threading.get_ident() not in threads
        assert len(set(threads)) > 1
        assert len(pools) == 2  # phase 2's and phase 3's

    def test_each_driver_says_whether_its_round_trips_wait(self):
        assert not NDBCluster(NDBConfig()).round_trips_wait
        assert NDBCluster(NDBConfig(network_delay=WAITING)).round_trips_wait
        assert not MemoryDriver().round_trips_wait
        assert RemoteDriver().round_trips_wait  # built, never dialled

    def test_the_engine_fans_out_by_the_same_rule(self):
        for delay in (0.0, WAITING):
            cluster = NDBCluster(NDBConfig(network_delay=delay))
            assert (cluster.parallel_dispatch_enabled
                    == cluster.round_trips_wait == (delay > 0))
        cluster = NDBCluster(NDBConfig(network_delay=WAITING,
                                       executor_threads=0))
        assert cluster.round_trips_wait
        assert not cluster.parallel_dispatch_enabled


class TestFailedLevelStops:
    """Once one unit of a level has failed no further one starts: the
    caller is about to be told the operation failed. The engine's round
    trips do not wait, so the units run on the calling thread, in
    order."""

    network_delay = 0.0

    @staticmethod
    def delete_failing(nn, op, skip):
        """Recursive delete with the ``skip + 1``-th ``op`` transaction
        failing as it begins; returns what happened at ``op``'s begin
        site, in order: ``call`` a transaction began, ``error`` the
        fault fired in the one that had just begun."""
        plan = faults.FaultPlan(seed=1)
        plan.add("hopsfs.op", match={"op": op}, action="call",
                 callback="begun", max_fires=None)
        plan.add("hopsfs.op", match={"op": op}, action="error", skip=skip)
        with faults.installed(plan) as injector:
            injector.register("begun", lambda: None)
            with pytest.raises(InjectedFaultError):
                nn.delete_subtree("/x/y/wide")
        return [fired.action for fired in injector.fired]

    def test_quiesce_stops_after_the_first_failed_group(self):
        fs, nn = wide_tree(subtree_parallelism=1,
                           network_delay=self.network_delay)
        # the root's group, then the first of the level of 20 fails: the
        # two groups queued behind it never begin
        assert self.delete_failing(nn, "subtree_quiesce", skip=1) == [
            "call", "call", "error"]
        assert committed(nn, "subtree_delete_batch") == 0
        self.assert_released_and_resumable(fs, nn)

    def test_delete_stops_after_the_first_failed_batch(self):
        fs, nn = wide_tree(subtree_parallelism=1,
                           network_delay=self.network_delay)
        assert self.delete_failing(nn, "subtree_delete_batch", skip=0) == [
            "call", "error"]
        assert fs.driver.table_size("inodes") == 2 + 1 + 20 + 20
        self.assert_released_and_resumable(fs, nn)

    def test_namenode_killed_mid_quiesce_leaves_only_the_flag(self):
        """Groups write nothing: a namenode that dies between two of
        them leaves the subtree flag (lazily reclaimed, §6.2), every
        inode, and no row lock."""
        fs = make_hopsfs(num_namenodes=2, subtree_parallelism=1,
                         network_delay=self.network_delay)
        victim, survivor = fs.namenodes
        for d in range(20):
            victim.create(f"/x/y/wide/d{d:02}/f", client="c")
        inodes = fs.driver.table_size("inodes")
        plan = faults.FaultPlan(seed=1)
        plan.add("hopsfs.op", match={"op": "subtree_quiesce", "nn": victim.nn_id},
                 action="call", callback="kill", skip=2)
        with faults.installed(plan) as injector:
            injector.register("kill", victim.kill)
            with pytest.raises(NameNodeUnavailableError):
                victim.delete_subtree("/x/y/wide")
        assert committed(victim, "subtree_quiesce") == 2  # root, one group
        assert fs.driver.table_size("inodes") == inodes
        assert [r["path"] for r in subtree_rows(fs)] == ["/x/y/wide"]
        assert fs.driver._locks.lock_table_size() == 0
        with pytest.raises(SubtreeLockedError):  # the owner looks alive
            survivor.get_file_info("/x/y/wide/d00/f")
        for _ in range(3):
            fs.tick_heartbeats()
        assert survivor.get_file_info("/x/y/wide/d00/f") is not None
        assert subtree_rows(fs) == []
        assert survivor.delete_subtree("/x/y/wide")
        assert Fsck(survivor).run().healthy

    @staticmethod
    def assert_released_and_resumable(fs, nn):
        assert subtree_rows(fs) == []
        assert all(r["subtree_lock_owner"] == fs_schema.NO_LOCK
                   for r in subtree_rows(fs, "inodes"))
        assert fs.driver._locks.lock_table_size() == 0
        assert nn.delete_subtree("/x/y/wide")  # a re-submit finishes
        assert fs.driver.table_size("inodes") == 2
        assert Fsck(nn).run().healthy


class TestFailedLevelStopsOnThePool(TestFailedLevelStops):
    """The same where the engine's round trips wait: the units go to a
    pool of one worker thread, which runs them in order too, so whatever
    is queued behind the failing unit would run after it,
    deterministically."""

    network_delay = WAITING


class TestSubtreeMove:
    def test_move_big_directory(self, fs, client):
        build_tree(client, dirs=2, files_per_dir=3, depth=2)
        assert client.rename("/tree", "/relocated")
        assert not client.exists("/tree")
        assert client.exists("/relocated")
        summary = client.content_summary("/relocated")
        assert summary.file_count == 18  # 2 + 4 dirs, 3 files each

    def test_move_into_subdir(self, fs, client):
        client.write_file("/src/a/f", b"data")
        client.mkdirs("/dst")
        assert client.rename("/src", "/dst/src")
        assert client.read_file("/dst/src/a/f") == b"data"

    def test_move_clears_subtree_lock(self, fs, client):
        client.create("/m/f")
        client.rename("/m", "/n")
        rows = subtree_rows(fs)
        assert rows == []
        session = fs.driver.session()
        inodes = session.run(lambda tx: tx.full_scan("inodes"))
        assert all(r["subtree_lock_owner"] == fs_schema.NO_LOCK
                   for r in inodes)

    def test_deep_paths_resolvable_after_move(self, fs, client):
        client.write_file("/x/y/z/deep.txt", b"deep")
        client.rename("/x/y", "/x/w")
        assert client.read_file("/x/w/z/deep.txt") == b"deep"
        # a second namenode with a cold cache also resolves the moved path
        fresh = fs.add_namenode()
        assert fresh.get_file_info("/x/w/z/deep.txt") is not None


class TestSetQuota:
    def test_quota_set_and_reported(self, fs, client):
        client.write_file("/q/f1", b"12345", replication=1)
        client.set_quota("/q", 10, 1000)
        summary = client.content_summary("/q")
        assert summary.ns_quota == 10 and summary.ds_quota == 1000

    def test_ns_quota_enforced(self, fs, client):
        from repro.errors import QuotaExceededError

        client.mkdirs("/q")
        client.set_quota("/q", 3, None)  # the dir itself counts as 1
        client.create("/q/f1")
        client.create("/q/f2")
        fs.tick()  # fold quota updates so usage is visible
        with pytest.raises(QuotaExceededError):
            client.create("/q/f3")

    def test_quota_usage_tracked_async(self, fs, client):
        client.mkdirs("/q")
        client.set_quota("/q", 100, None)
        for i in range(5):
            client.create(f"/q/f{i}")
        fs.tick()
        session = fs.driver.session()
        rows = session.run(lambda tx: tx.full_scan("quotas"))
        assert rows[0]["ns_used"] == 6  # dir + 5 files

    def test_one_fold_updates_each_directory_by_its_own_deltas(self, fs):
        """The leader folds every queued delta in one transaction. Here
        the deltas are queued for two quota'd directories in descending
        inode id, so the fold meets them out of key order."""
        nn = fs.namenodes[0]
        nn.mkdirs("/qa")
        nn.mkdirs("/qb")
        ids = {name: nn.get_file_info(f"/{name}").inode_id
               for name in ("qa", "qb")}
        assert ids["qa"] < ids["qb"]
        for name in ("qa", "qb"):
            nn.set_quota(f"/{name}", 100, 10**9)
        fs.tick()
        nn.create("/qb/f", client="c")
        nn.add_block("/qb/f", "c")
        nn.create("/qa/f1", client="c")
        nn.create("/qa/f2", client="c")
        fs.tick()
        rows = fs.driver.session().run(lambda tx: tx.read_batch(
            "quotas", [(ids["qa"],), (ids["qb"],)]))
        block = fs.config.block_size * 3  # a block reserves its replicas
        assert [(row["ns_used"], row["ds_used"]) for row in rows] == [
            (3, 0), (2, block)]

    def test_delete_releases_quota(self, fs, client):
        client.mkdirs("/q")
        client.set_quota("/q", 4, None)
        client.create("/q/a")
        client.create("/q/b")
        fs.tick()
        client.delete("/q/a")
        fs.tick()
        client.create("/q/c")  # fits again

    def test_clear_quota(self, fs, client):
        client.mkdirs("/q")
        client.set_quota("/q", 5, None)
        client.set_quota("/q", None, None)
        assert client.content_summary("/q").ns_quota is None

    def test_a_root_moved_after_the_quiesce_gets_no_quota(self, fs, client):
        """The root moves between phases 2 and 3 (here under the lock
        owner's own hand): set_quota fails and writes no quota row, which
        no mutation would read with the inode's ``SUB_QUOTA`` bit clear,
        and its subtree lock is released."""
        client.create("/q/f")
        nn = fs.namenodes[0]
        q_id = nn.get_file_info("/q").inode_id

        def move():
            fs.driver.session().run(
                lambda tx: nn._rename_in_tx(tx, "/q", "/moved",
                                            subtree_root_id=q_id))

        with at_subtree_stage(nn, "after_quiesce", move), \
                pytest.raises(FileNotFoundError_):
            nn.set_quota("/q", 5, None)
        assert nn.get_file_info("/moved").inode_id == q_id
        assert subtree_rows(fs, "quotas") == []
        assert subtree_rows(fs) == []
        report = Fsck(nn).run()
        assert report.healthy, report.issues
        nn.set_quota("/moved", 5, None)
        assert client.content_summary("/moved").ns_quota == 5


class TestRenameIntoASubtreeBeingDeleted:
    """§6.1: a subtree delete never orphans an inode — not even one that a
    rename on another namenode moves into the subtree between the
    rename's path resolution and its lock batch. The lock batch re-reads
    every ancestor of both paths once its X locks landed, so the
    subtree-lock flag (or the hole) the delete left above them is seen.
    """

    @staticmethod
    def racing_rename(victim, park):
        """``nn1`` renames ``/p/q/other/f0`` to ``/p/q/tree/d5/moved``;
        right after it resolved the destination ``nn0`` deletes ``victim``
        recursively — parked after the quiesce until the rename returned
        (``park``) or run to completion. Returns the cluster and what the
        rename returned or raised."""
        fs = make_hopsfs(num_namenodes=2)
        nn0, nn1 = fs.namenodes
        for path in ("/p", "/p/q", "/p/q/other", "/p/q/tree",
                     "/p/q/tree/d5"):
            nn0.mkdirs(path)
        nn0.create("/p/q/other/f0", client="c")
        nn0.create("/p/q/tree/d5/x", client="c")
        nn1.get_file_info("/p/q/other/f0")
        nn1.get_file_info("/p/q/tree/d5/x")  # nn1's hints are warm
        quiesced, renamed = threading.Event(), threading.Event()

        def parked():
            quiesced.set()
            assert renamed.wait(10)

        deleter = threading.Thread(
            target=nn0.delete, args=(victim,), kwargs={"recursive": True})
        real_resolve = nn1.resolver.resolve

        def resolve(tx, path, *args, **kwargs):
            resolved = real_resolve(tx, path, *args, **kwargs)
            if path == "/p/q/tree/d5/moved" and not deleter.ident:
                deleter.start()
                if park:
                    assert quiesced.wait(10)
                else:
                    deleter.join(10)
            return resolved

        nn1.resolver.resolve = resolve
        hook = (at_subtree_stage(nn0, "after_quiesce", parked) if park
                else contextlib.nullcontext())
        try:
            with hook:
                try:
                    outcome = nn1.rename("/p/q/other/f0",
                                         "/p/q/tree/d5/moved")
                except Exception as exc:  # noqa: BLE001 - the test judges it
                    outcome = exc
                finally:
                    renamed.set()
                    deleter.join(10)
        finally:
            nn1.resolver.resolve = real_resolve
        assert not deleter.is_alive()
        return fs, outcome

    @pytest.mark.parametrize("victim", ["/p/q/tree", "/p/q/tree/d5"])
    def test_rename_sees_the_flag_set_above_its_locks(self, victim):
        fs, outcome = self.racing_rename(victim, park=True)
        nn0, nn1 = fs.namenodes
        assert isinstance(outcome, SubtreeLockedError)
        assert Fsck(nn0).run().healthy
        assert nn0.get_file_info(victim) is None
        # the file stayed where it was; the client's retry now finds no
        # destination directory
        assert nn1.get_file_info("/p/q/other/f0") is not None
        with pytest.raises(FileNotFoundError_):
            nn1.rename("/p/q/other/f0", "/p/q/tree/d5/moved")
        assert fs.driver._locks.lock_table_size() == 0

    @pytest.mark.parametrize("victim", ["/p/q/tree", "/p/q/tree/d5"])
    def test_destination_directory_gone_is_file_not_found(self, victim):
        """The delete finished before the lock batch: the destination's
        parent is a hole — ``FileNotFoundError_``, never the engine's
        ``NoSuchRowError`` from touching a row that is not there."""
        fs, outcome = self.racing_rename(victim, park=False)
        nn0, nn1 = fs.namenodes
        assert isinstance(outcome, FileNotFoundError_)
        assert Fsck(nn0).run().healthy
        assert nn1.get_file_info("/p/q/other/f0") is not None
        assert fs.driver._locks.lock_table_size() == 0
