"""Tests for NDB failure handling and recovery (paper §2.2.1, §7.6.2).

Covers: node-group replica failover, coordinator failover (in-flight
transaction aborts), node recovery by copying from peers, cluster-down
semantics when a whole node group dies, epochs and crash recovery to the
last completed epoch.
"""

import threading
import time

import pytest

from repro.errors import (
    ClusterDownError,
    DeadlockError,
    LockTimeoutError,
    TransactionAbortedError,
)
from repro.ndb import LockMode, NDBCluster, NDBConfig, TableSchema
from repro.ndb.fragment import Fragment

KV = TableSchema(
    name="kv",
    columns=("k", "v"),
    primary_key=("k",),
)


def make_cluster(nodes=4, repl=2):
    c = NDBCluster(NDBConfig(num_datanodes=nodes, replication=repl,
                             lock_timeout=0.4))
    c.create_table(KV)
    return c


def put(cluster, k, v):
    with cluster.begin() as tx:
        tx.write("kv", {"k": k, "v": v})


def get(cluster, k):
    with cluster.begin() as tx:
        row = tx.read("kv", (k,))
    return row["v"] if row else None


class TestReplicaFailover:
    def test_data_survives_single_node_failure(self):
        cluster = make_cluster()
        for i in range(50):
            put(cluster, i, f"v{i}")
        cluster.kill_node(0)
        assert cluster.is_available()
        for i in range(50):
            assert get(cluster, i) == f"v{i}"

    def test_half_the_nodes_can_fail_in_disjoint_groups(self):
        # 12-node cluster, R=2 -> 6 groups; one failure per group survives
        cluster = make_cluster(nodes=12, repl=2)
        for i in range(60):
            put(cluster, i, i)
        for group in range(6):
            cluster.kill_node(group * 2)  # one node per group
        assert cluster.is_available()
        assert all(get(cluster, i) == i for i in range(60))

    def test_whole_node_group_down_means_cluster_down(self):
        cluster = make_cluster()
        put(cluster, 1, "x")
        cluster.kill_node(0)
        cluster.kill_node(1)  # nodes 0,1 form node group 0
        assert not cluster.is_available()
        # some partition now has no live primary
        with pytest.raises(ClusterDownError):
            for i in range(100):
                get(cluster, i)

    def test_writes_continue_after_failover(self):
        cluster = make_cluster()
        put(cluster, 1, "before")
        cluster.kill_node(1)
        put(cluster, 1, "after")
        put(cluster, 999, "new")
        assert get(cluster, 1) == "after"
        assert get(cluster, 999) == "new"

    def test_node_restart_recovers_from_peer(self):
        cluster = make_cluster()
        for i in range(40):
            put(cluster, i, i)
        cluster.kill_node(0)
        for i in range(40, 60):
            put(cluster, i, i)  # written while node 0 is down
        cluster.restart_node(0)
        # now the *other* node in group 0 fails; node 0 must serve everything
        cluster.kill_node(1)
        assert cluster.is_available()
        assert all(get(cluster, i) == i for i in range(60))

    def test_kill_is_idempotent(self):
        cluster = make_cluster()
        cluster.kill_node(0)
        cluster.kill_node(0)
        assert cluster.live_nodes() == [1, 2, 3]

    def test_replication_degree_one_loses_partitions(self):
        cluster = make_cluster(nodes=2, repl=1)
        for i in range(20):
            put(cluster, i, i)
        cluster.kill_node(0)
        assert not cluster.is_available()


class TestCoordinatorFailover:
    def test_inflight_tx_aborted_when_coordinator_dies(self):
        cluster = make_cluster()
        tx = cluster.begin()
        tx.write("kv", {"k": 1, "v": "dirty"})
        cluster.kill_node(tx.coordinator)
        with pytest.raises(TransactionAbortedError):
            tx.commit()
        assert get(cluster, 1) is None  # buffered write was discarded

    def test_aborted_tx_releases_its_locks(self):
        cluster = make_cluster()
        put(cluster, 1, "x")
        tx = cluster.begin()
        tx.read("kv", (1,), lock=LockMode.EXCLUSIVE)
        cluster.kill_node(tx.coordinator)
        # another transaction can immediately take the lock
        with cluster.begin() as tx2:
            row = tx2.read("kv", (1,), lock=LockMode.EXCLUSIVE)
        assert row["v"] == "x"

    def test_transactions_on_surviving_coordinators_unaffected(self):
        cluster = make_cluster()
        tx = cluster.begin()
        victim = (tx.coordinator + 2) % 4  # different node group
        tx.write("kv", {"k": 5, "v": "ok"})
        cluster.kill_node(victim)
        tx.commit()
        assert get(cluster, 5) == "ok"


class TestEpochsAndCrashRecovery:
    def test_completed_epoch_survives_crash(self):
        cluster = make_cluster()
        put(cluster, 1, "durable")
        cluster.complete_epoch()
        put(cluster, 2, "lost")  # committed in the in-flight epoch
        recovered_epoch = cluster.crash_and_recover()
        assert recovered_epoch == 1
        assert get(cluster, 1) == "durable"
        assert get(cluster, 2) is None

    def test_recovery_with_local_checkpoint(self):
        cluster = make_cluster()
        for i in range(10):
            put(cluster, i, i)
        cluster.complete_epoch()
        cluster.local_checkpoint()
        for i in range(10, 20):
            put(cluster, i, i)
        cluster.complete_epoch()  # second epoch completed after LCP
        for i in range(20, 30):
            put(cluster, i, i)  # in-flight epoch, will be lost
        cluster.crash_and_recover()
        assert all(get(cluster, i) == i for i in range(20))
        assert all(get(cluster, i) is None for i in range(20, 30))

    def test_recovery_undoes_checkpointed_incomplete_epoch(self):
        cluster = make_cluster()
        put(cluster, 1, "old")
        cluster.complete_epoch()
        put(cluster, 1, "new")      # in-flight epoch...
        cluster.local_checkpoint()  # ...captured by the checkpoint
        cluster.crash_and_recover()
        assert get(cluster, 1) == "old"  # undo log rolled it back

    def test_crash_aborts_inflight_transactions(self):
        cluster = make_cluster()
        tx = cluster.begin()
        tx.write("kv", {"k": 9, "v": "inflight"})
        cluster.crash_and_recover()
        with pytest.raises(TransactionAbortedError):
            tx.commit()
        assert get(cluster, 9) is None

    def test_updates_and_deletes_replayed(self):
        cluster = make_cluster()
        put(cluster, 1, "a")
        put(cluster, 2, "b")
        cluster.complete_epoch()
        cluster.local_checkpoint()
        put(cluster, 1, "a2")
        with cluster.begin() as tx:
            tx.delete("kv", (2,))
        cluster.complete_epoch()
        cluster.crash_and_recover()
        assert get(cluster, 1) == "a2"
        assert get(cluster, 2) is None

    def test_cluster_usable_after_recovery(self):
        cluster = make_cluster()
        put(cluster, 1, "x")
        cluster.complete_epoch()
        cluster.crash_and_recover()
        put(cluster, 2, "y")
        assert get(cluster, 2) == "y"


def assert_indexes_match_rows(frag):
    """A fragment's partition-key and secondary indexes are exactly what
    rebuilding them from its rows gives."""
    rebuilt = Fragment(frag.schema, frag.partition_id)
    rebuilt.load(frag.snapshot())
    with frag._lock, rebuilt._lock:
        assert list(frag._rows) == list(rebuilt._rows)
        # buckets list their pks in row (= scan) order
        assert ({key: list(pks) for key, pks in frag._partition_index.items()}
                == {key: list(pks)
                    for key, pks in rebuilt._partition_index.items()})
        # an update that changes an indexed column re-appends the pk to
        # its new bucket, so secondary buckets compare as sets
        assert frag._indexes == rebuilt._indexes


def replica_snapshots(cluster, table):
    """Per-partition row snapshots of every *live* replica of ``table``.

    Returns ``{pid: [rows-of-replica, ...]}`` with each replica's rows in
    primary-key order, so equality between list entries means the
    replicas are byte-identical. Every replica visited must also hold
    indexes that match its rows.
    """
    schema = cluster.schema(table)
    out = {}
    for pid in range(cluster.config.num_partitions):
        replicas = []
        for node_id in cluster._pmap.replica_nodes(pid):
            node = cluster.datanodes[node_id]
            if not node.alive:
                continue
            frag = node.fragment(table, pid)
            assert_indexes_match_rows(frag)
            replicas.append(sorted(frag.scan(), key=schema.pk_of))
        out[pid] = replicas
    return out


class TestCommitStormWithFailures:
    """Parallel commits racing a node kill must never diverge replicas.

    Commits take the structure gate in read mode and kill/restart take it
    in write mode, so a kill lands *between* commits, never inside one —
    after the storm every live replica of every partition must hold the
    same rows.
    """

    RETRIABLE = (ClusterDownError, DeadlockError, LockTimeoutError,
                 TransactionAbortedError)

    def _storm(self, cluster, n_threads=6, per_thread=12):
        errors = []

        def worker(tid):
            for i in range(per_thread):
                key = tid * 1000 + i
                for _attempt in range(12):
                    try:
                        put(cluster, key, f"{tid}:{i}")
                        break
                    except self.RETRIABLE:
                        time.sleep(0.002)
                else:  # pragma: no cover - storm never drained
                    errors.append(f"key {key} never committed")

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(n_threads)]
        for t in threads:
            t.start()
        return threads, errors

    def test_kill_mid_storm_leaves_replicas_identical(self):
        cluster = NDBCluster(NDBConfig(
            num_datanodes=4, replication=2, lock_timeout=5.0,
            network_delay=0.0002, log_flush_delay=0.0002))
        cluster.create_table(KV)
        try:
            threads, errors = self._storm(cluster)
            time.sleep(0.02)  # let commits overlap the kill
            cluster.kill_node(0)
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            for pid, replicas in replica_snapshots(cluster, "kv").items():
                assert replicas, f"partition {pid} lost every replica"
                for other in replicas[1:]:
                    assert other == replicas[0], (
                        f"replicas of partition {pid} diverged")
            assert cluster.table_size("kv") == 6 * 12
        finally:
            cluster.close()

    def test_kill_and_restart_mid_storm_recovers_replica(self):
        cluster = NDBCluster(NDBConfig(
            num_datanodes=4, replication=2, lock_timeout=5.0,
            network_delay=0.0002))
        cluster.create_table(KV)
        try:
            threads, errors = self._storm(cluster, n_threads=4,
                                          per_thread=10)
            time.sleep(0.01)
            cluster.kill_node(1)
            time.sleep(0.01)
            cluster.restart_node(1)  # copies fragments from live peer
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            snapshots = replica_snapshots(cluster, "kv")
            for pid, replicas in snapshots.items():
                assert len(replicas) == 2  # both replicas live again
                assert replicas[0] == replicas[1]
            assert cluster.table_size("kv") == 4 * 10
        finally:
            cluster.close()
