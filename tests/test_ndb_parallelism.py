"""Tests for the shard-parallel engine: the lock table, per-shard
dispatch, group-committed 2PC, bulk id allocation and the primary
table.

The stress tests use real threads; they keep iteration counts small so
the suite stays fast, and every assertion is about *correctness* (no
lost grants, byte-identical replicas) rather than wall-clock speed —
timing claims live in ``benchmarks/bench_engine_parallelism.py``.
"""

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import DeadlockError, LockTimeoutError
from repro.hopsfs.tx import IdAllocator
from repro.ndb import LockMode, NDBCluster, NDBConfig, TableSchema, datanode
from repro.ndb.locks import LockManager
from repro.ndb.stats import AccessKind

KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))


#: the two sides of the dispatch rule, by the inputs it derives from:
#: no executor -> inline; an executor plus a (sub-millisecond) simulated
#: round-trip latency -> multi-shard work fans out on the executor
INLINE = dict(executor_threads=0)
PARALLEL = dict(network_delay=0.0001)


def make_cluster(**overrides):
    defaults = dict(num_datanodes=4, replication=2, lock_timeout=0.5)
    defaults.update(overrides)
    cluster = NDBCluster(NDBConfig(**defaults))
    cluster.create_table(KV)
    return cluster


def seed(cluster, n):
    with cluster.begin() as tx:
        for i in range(n):
            tx.insert("kv", {"k": i, "v": f"v{i}"})


# -- the lock table ---------------------------------------------------------------


class TestStripedLocks:
    def test_stress_no_lost_grants(self):
        """Many threads doing read-modify-write on overlapping keys under
        X locks, switching every few bytecodes: every increment must land
        (the lock is actually mutual exclusion) and the table must drain
        afterwards."""
        mgr = LockManager(timeout=5.0)
        keys = [("kv", (i,)) for i in range(10)]
        counters = {key: 0 for key in keys}
        increments_per_thread = 40
        errors = []

        def worker(tid):
            try:
                for i in range(increments_per_thread):
                    key = keys[(tid + i) % len(keys)]
                    owner = (tid, i)
                    mgr.acquire(owner, key, LockMode.EXCLUSIVE)
                    try:
                        counters[key] += 1
                    finally:
                        mgr.release_all(owner)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert sum(counters.values()) == 8 * increments_per_thread
        assert mgr.lock_table_size() == 0

    def test_shared_locks_coexist_on_many_rows(self):
        mgr = LockManager()
        for owner in ("a", "b", "c"):
            for i in range(8):
                mgr.acquire(owner, ("kv", (i,)), LockMode.SHARED)
        for i in range(8):
            assert len(mgr.holders(("kv", (i,)))) == 3
        for owner in ("a", "b", "c"):
            mgr.release_all(owner)
        assert mgr.lock_table_size() == 0

    @pytest.mark.lock_witness_exempt
    def test_two_row_deadlock_raises_exactly_once(self):
        """The whole wait-for graph is under the table's one mutex, so
        the cycle is seen by the waiter that closes it, and by no one
        else: one DeadlockError, no timeout, and the survivor is granted
        once the victim releases."""
        mgr = LockManager(timeout=2.0)
        key_a, key_b = ("kv", (0,)), ("kv", (1,))
        mgr.acquire("t1", key_a, LockMode.EXCLUSIVE)
        mgr.acquire("t2", key_b, LockMode.EXCLUSIVE)
        failures = []
        barrier = threading.Barrier(2)

        def cross(owner, want):
            barrier.wait()
            try:
                mgr.acquire(owner, want, LockMode.EXCLUSIVE)
            except (DeadlockError, LockTimeoutError) as exc:
                failures.append((owner, exc))
                mgr.release_all(owner)

        t1 = threading.Thread(target=cross, args=("t1", key_b))
        t2 = threading.Thread(target=cross, args=("t2", key_a))
        t1.start()
        t2.start()
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert not t1.is_alive() and not t2.is_alive()
        assert len(failures) == 1
        [(victim, exc)] = failures
        assert isinstance(exc, DeadlockError)
        assert mgr.deadlocks == 1 and mgr.timeouts == 0
        survivor = "t2" if victim == "t1" else "t1"
        assert mgr.held_keys(survivor) == {key_a, key_b}
        mgr.release_all(survivor)
        assert mgr.lock_table_size() == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NDBConfig(executor_threads=-1)
        with pytest.raises(ValueError):
            NDBConfig(network_delay=-0.1)


# -- per-shard dispatch -----------------------------------------------------------


class TestShardDispatch:
    def test_inline_without_latency_or_without_executor(self):
        assert not make_cluster().parallel_dispatch_enabled
        assert not make_cluster(**INLINE, **PARALLEL).parallel_dispatch_enabled

    def test_parallel_with_latency(self):
        cluster = make_cluster(**PARALLEL)
        try:
            assert cluster.parallel_dispatch_enabled
        finally:
            cluster.close()

    def test_read_batch_parallel_matches_inline(self):
        inline = make_cluster(**INLINE)
        parallel = make_cluster(**PARALLEL)
        try:
            seed(inline, 40)
            seed(parallel, 40)
            keys = [(i,) for i in (7, 0, 33, 12, 5, 28)]
            with inline.begin() as tx:
                expected = tx.read_batch("kv", keys)
            with parallel.begin() as tx:
                got = tx.read_batch("kv", keys)
            assert got == expected  # caller key order, not shard order
        finally:
            parallel.close()

    def test_read_batch_emits_one_batch_event(self):
        cluster = make_cluster(**PARALLEL)
        try:
            seed(cluster, 20)
            tx = cluster.begin()
            tx.read_batch("kv", [(i,) for i in range(12)])
            events = [e for e in tx.stats.events
                      if e.kind is AccessKind.BATCH_PK]
            assert len(events) == 1
            assert events[0].rows == 12
            tx.commit()
        finally:
            cluster.close()

    def test_scans_parallel_match_inline(self):
        inline = make_cluster(**INLINE)
        parallel = make_cluster(**PARALLEL)
        try:
            seed(inline, 30)
            seed(parallel, 30)
            pred = lambda row: row["k"] % 3 == 0  # noqa: E731
            with inline.begin() as tx:
                expected = tx.full_scan("kv", pred)
            with parallel.begin() as tx:
                got = tx.full_scan("kv", pred)
            assert sorted(r["k"] for r in got) == \
                sorted(r["k"] for r in expected)
        finally:
            parallel.close()

    def test_locked_scan_stays_correct_under_parallel_config(self):
        # scans that take row locks never fan out (lock order must stay
        # deterministic), but a parallel-dispatch cluster must not break them
        cluster = NDBCluster(NDBConfig(num_datanodes=4, replication=2,
                                       **PARALLEL))
        cluster.create_table(TableSchema(
            name="idx", columns=("k", "g"), primary_key=("k",),
            indexes={"by_g": ("g",)}))
        try:
            with cluster.begin() as tx:
                for i in range(15):
                    tx.insert("idx", {"k": i, "g": i % 2})
            with cluster.begin() as tx:
                rows = tx.index_scan("idx", "by_g", (0,),
                                     lock=LockMode.SHARED)
            assert sorted(r["k"] for r in rows) == list(range(0, 15, 2))
        finally:
            cluster.close()


# -- group-committed, participant-parallel 2PC ------------------------------------


class TestGroupCommit:
    def test_commit_log_counts_match_commits(self):
        cluster = make_cluster()
        for i in range(5):
            with cluster.begin() as tx:
                tx.write("kv", {"k": i, "v": i})
        stats = cluster.group_commit_stats
        assert stats["records"] == 5
        assert 1 <= stats["flushes"] <= 5
        assert stats["max_batch"] >= 1

    def test_concurrent_commits_all_durable(self):
        cluster = make_cluster(network_delay=0.0002, log_flush_delay=0.0005,
                               lock_timeout=5.0)
        try:
            n_threads, per_thread = 6, 10
            errors = []

            def worker(tid):
                try:
                    for i in range(per_thread):
                        with cluster.begin() as tx:
                            tx.write("kv", {"k": tid * 1000 + i, "v": tid})
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(tid,))
                       for tid in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(cluster.commit_log) == n_threads * per_thread
            assert cluster.table_size("kv") == n_threads * per_thread
            # group commit actually batched some flushes together
            stats = cluster.group_commit_stats
            assert stats["flushes"] <= stats["records"]
        finally:
            cluster.close()

    def test_the_flush_leader_observes_each_flush_once(self, monkeypatch):
        """Two commits that stage while a third one's flush sleeps share
        the next flush: ``ndb_group_commit_batch`` sees one observation
        per flush (count = flushes, sum = records), not one per commit."""
        cluster = make_cluster(log_flush_delay=0.001)
        log = cluster._commit_log
        flushes = []
        followers = []

        def commit(k):
            with cluster.begin() as tx:
                tx.write("kv", {"k": k, "v": k})

        def flush(seconds):
            flushes.append(seconds)
            if len(flushes) > 1:
                return
            # the first leader's flush: two more commits stage behind it
            followers.extend(threading.Thread(target=commit, args=(k,))
                             for k in (1, 2))
            for t in followers:
                t.start()
            deadline = time.monotonic() + 5.0
            while True:
                with log._cond:
                    if len(log._staged) == 2:
                        return
                assert time.monotonic() < deadline
                time.sleep(0.001)

        monkeypatch.setattr(datanode, "time", SimpleNamespace(sleep=flush))
        commit(0)
        for t in followers:
            t.join()
        batches = cluster.metrics.histogram("ndb_group_commit_batch")
        assert len(flushes) == 2
        assert batches.count == len(flushes)
        assert batches.total == len(cluster.commit_log) == 3
        assert cluster.group_commit_stats == {
            "flushes": 2, "records": 3, "max_batch": 2}

    def test_commit_log_holds_each_write_once(self):
        cluster = make_cluster()
        with cluster.begin() as tx:
            tx.write("kv", {"k": 1, "v": "x"})
            tx.write("kv", {"k": 2, "v": "y"})
        with cluster.begin() as tx:
            tx.write("kv", {"k": 1, "v": "z"})
        afters = [w.after for rec in cluster.commit_log for w in rec.writes]
        for row in ({"k": 1, "v": "x"}, {"k": 2, "v": "y"},
                    {"k": 1, "v": "z"}):
            assert afters.count(row) == 1


# -- the primary table ------------------------------------------------------------


class TestPrimaryTable:
    def test_kill_moves_the_primaries(self):
        cluster = make_cluster()
        before = cluster.primary_table()
        cluster.kill_node(before[0])
        after = cluster.primary_table()
        assert after != before
        assert before[0] not in after

    def test_restart_keeps_the_table(self):
        cluster = make_cluster()
        first = cluster.primary_table()[0]
        cluster.kill_node(first)
        cluster.restart_node(first)
        # a restart moves no primary: the restarted node is a replica
        assert cluster.primary_table() == cluster.primary_table()

    def test_stats_nodes_follow_failover(self):
        cluster = make_cluster()
        seed(cluster, 8)
        victim = cluster.primary_table()[cluster.partition_of("kv", (3,))]
        cluster.kill_node(victim)
        tx = cluster.begin()
        tx.read("kv", (3,))
        event = tx.stats.events[-1]
        assert victim not in event.nodes
        tx.commit()


# -- bulk id allocation -----------------------------------------------------------


class TestNextMany:
    def make_seq_cluster(self):
        cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2))
        cluster.create_table(TableSchema(
            name="sequences", columns=("name", "next_value"),
            primary_key=("name",)))
        with cluster.begin() as tx:
            tx.insert("sequences", {"name": "ids", "next_value": 100})
        return cluster

    def test_bulk_ids_unique_and_ordered(self):
        cluster = self.make_seq_cluster()
        alloc = IdAllocator(cluster.session(), "ids", batch=10)
        ids = alloc.next_many(25)
        assert len(ids) == 25
        assert ids == sorted(set(ids))

    def test_bulk_allocation_single_refill(self):
        cluster = self.make_seq_cluster()
        alloc = IdAllocator(cluster.session(), "ids", batch=10)
        leases = []
        original = alloc._lease_batch
        alloc._lease_batch = lambda size: (leases.append(size),
                                           original(size))[1]
        alloc.next_many(45)  # empty lease, needs 45 > batch
        assert leases == [45]

    def test_bulk_drains_lease_before_refill(self):
        cluster = self.make_seq_cluster()
        alloc = IdAllocator(cluster.session(), "ids", batch=10)
        first = alloc.next()  # leases [100, 110)
        ids = alloc.next_many(15)  # 9 from lease + one refill of >= 10
        assert ids[0] == first + 1
        assert len(set(ids)) == 15
        with cluster.begin() as tx:
            leased = tx.read("sequences", ("ids",))["next_value"]
        assert leased == 120  # exactly two leases total

    def test_zero_and_negative(self):
        cluster = self.make_seq_cluster()
        alloc = IdAllocator(cluster.session(), "ids", batch=10)
        assert alloc.next_many(0) == []
        assert alloc.next_many(-3) == []

    def test_interleaves_with_next(self):
        cluster = self.make_seq_cluster()
        alloc = IdAllocator(cluster.session(), "ids", batch=8)
        seen = set()
        for _ in range(4):
            seen.add(alloc.next())
            seen.update(alloc.next_many(7))
        assert len(seen) == 4 * 8
