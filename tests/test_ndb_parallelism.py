"""Tests for the shard-parallel engine: striped locks, per-shard
dispatch, group-committed 2PC, bulk id allocation and the primary-table
cache.

The stress tests use real threads; they keep iteration counts small so
the suite stays fast, and every assertion is about *correctness* (no
lost grants, byte-identical replicas) rather than wall-clock speed —
timing claims live in ``benchmarks/bench_engine_parallelism.py``.
"""

import threading

import pytest

from repro.errors import DeadlockError, LockTimeoutError
from repro.hopsfs.tx import IdAllocator
from repro.ndb import LockMode, NDBCluster, NDBConfig, TableSchema
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


# -- striped lock manager ---------------------------------------------------------


class TestStripedLocks:
    def test_stripe_count_and_distribution(self):
        mgr = LockManager(stripes=8)
        assert mgr.num_stripes == 8
        used = {mgr._stripe_of(("kv", (i,))).index for i in range(200)}
        assert len(used) > 1  # keys spread over stripes

    def test_single_stripe_still_works(self):
        mgr = LockManager(stripes=1)
        mgr.acquire("t1", "a", LockMode.EXCLUSIVE)
        mgr.acquire("t1", "b", LockMode.EXCLUSIVE)
        mgr.release_all("t1")
        assert mgr.lock_table_size() == 0

    def test_stress_no_lost_grants(self):
        """Many threads doing read-modify-write on overlapping keys under
        X locks: every increment must land (the lock is actually mutual
        exclusion) and the table must drain afterwards."""
        mgr = LockManager(timeout=5.0, stripes=8)
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
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sum(counters.values()) == 8 * increments_per_thread
        assert mgr.lock_table_size() == 0
        assert mgr.waits == sum(mgr.stripe_wait_counts())

    def test_shared_locks_coexist_across_stripes(self):
        mgr = LockManager(stripes=4)
        for owner in ("a", "b", "c"):
            for i in range(8):
                mgr.acquire(owner, ("kv", (i,)), LockMode.SHARED)
        for i in range(8):
            assert len(mgr.holders(("kv", (i,)))) == 3
        for owner in ("a", "b", "c"):
            mgr.release_all(owner)
        assert mgr.lock_table_size() == 0

    @pytest.mark.lock_witness_exempt
    def test_cross_stripe_deadlock_resolves(self):
        """A cycle whose two rows hash to *different* stripes must still
        be broken — the wait-for registry is global, not per stripe."""
        mgr = LockManager(timeout=2.0, stripes=8)
        key_a = ("kv", (0,))
        stripe_a = mgr._stripe_of(key_a).index
        key_b = next(("kv", (i,)) for i in range(1, 200)
                     if mgr._stripe_of(("kv", (i,))).index != stripe_a)

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
        assert failures, "deadlock was never broken"
        assert mgr.deadlocks + mgr.timeouts >= 1
        mgr.release_all("t1")
        mgr.release_all("t2")
        assert mgr.lock_table_size() == 0

    def test_config_validation(self):
        assert LockManager(stripes=0).num_stripes == 1  # clamped, not broken
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

    def test_datanode_redo_logs_populated(self):
        cluster = make_cluster()
        with cluster.begin() as tx:
            tx.write("kv", {"k": 1, "v": "x"})
        assert any(node.redo_log for node in cluster.datanodes)


# -- primary-table cache ----------------------------------------------------------


class TestPrimaryCache:
    def test_cache_invalidated_by_kill(self):
        cluster = make_cluster()
        before = cluster.primary_table()
        cluster.kill_node(before[0])
        after = cluster.primary_table()
        assert after != before
        assert before[0] not in after

    def test_cache_invalidated_by_restart(self):
        cluster = make_cluster()
        first = cluster.primary_table()[0]
        cluster.kill_node(first)
        cluster.restart_node(first)
        # restarted node is a replica again; table must be rebuilt, not
        # served stale from before the kill
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
