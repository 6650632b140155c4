"""Tests for NDB configuration validation and session retry behaviour."""

import dataclasses
import re
import threading
from pathlib import Path

import pytest

from repro.errors import DeadlockError, LockTimeoutError, TransactionAbortedError
from repro.hopsfs import HopsFSConfig
from repro.ndb import LockMode, NDBCluster, NDBConfig, TableSchema


KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))


class TestConfigValidation:
    def test_defaults_valid(self):
        config = NDBConfig()
        assert config.num_node_groups == 1
        assert config.num_partitions == 4

    def test_twelve_node_paper_cluster(self):
        config = NDBConfig(num_datanodes=12, replication=2)
        assert config.num_node_groups == 6

    def test_nodes_must_be_multiple_of_replication(self):
        with pytest.raises(ValueError):
            NDBConfig(num_datanodes=3, replication=2)

    @pytest.mark.parametrize("kwargs", [
        {"num_datanodes": 0},
        {"replication": 0},
        {"partitions_per_node": 0},
        {"lock_timeout": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            NDBConfig(**kwargs)

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_hopsfs_block_size_must_be_positive(self, block_size):
        # a negative size used to make write_file store no blocks and
        # report success: range(0, len(data), -n) is empty
        with pytest.raises(ValueError, match="block_size"):
            HopsFSConfig(block_size=block_size)

    def test_docs_configuration_table_lists_exactly_the_fields(self):
        doc = Path(__file__).parents[1] / "docs" / "architecture.md"
        documented = set(re.findall(
            r"^\| `((?:HopsFSConfig|NDBConfig)\.\w+)` \|",
            doc.read_text(encoding="utf-8"), flags=re.MULTILINE))
        actual = {f"{cls.__name__}.{f.name}"
                  for cls in (HopsFSConfig, NDBConfig)
                  for f in dataclasses.fields(cls)}
        assert documented == actual


class TestSessionRetries:
    def make(self):
        cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2,
                                       lock_timeout=0.15))
        cluster.create_table(KV)
        return cluster

    def test_run_retries_on_lock_timeout(self):
        import time

        cluster = self.make()
        with cluster.begin() as tx:
            tx.write("kv", {"k": 1, "v": 0})
        blocker = cluster.begin()
        blocker.read("kv", (1,), lock=LockMode.EXCLUSIVE)
        session = cluster.session()

        def release_later():
            # hold the lock past at least one full lock-wait timeout so
            # the first attempt is guaranteed to fail and be retried
            time.sleep(0.4)
            blocker.commit()

        t = threading.Thread(target=release_later)
        t.start()

        def fn(tx):
            row = tx.read("kv", (1,), lock=LockMode.EXCLUSIVE)
            tx.update("kv", (1,), {"v": row["v"] + 1})

        session.run(fn, retries=30)
        t.join(timeout=5)
        assert session.retries_used >= 1
        with cluster.begin() as tx:
            assert tx.read("kv", (1,))["v"] == 1

    def test_run_exhausts_retries(self):
        cluster = self.make()
        with cluster.begin() as tx:
            tx.write("kv", {"k": 1, "v": 0})
        blocker = cluster.begin()
        blocker.read("kv", (1,), lock=LockMode.EXCLUSIVE)
        session = cluster.session()
        with pytest.raises((LockTimeoutError, DeadlockError)):
            session.run(lambda tx: tx.read("kv", (1,),
                                           lock=LockMode.EXCLUSIVE),
                        retries=2)
        blocker.abort()

    def test_non_conflict_errors_propagate_without_retry(self):
        cluster = self.make()
        session = cluster.session()
        calls = []

        def fn(tx):
            calls.append(1)
            raise ValueError("application bug")

        with pytest.raises(ValueError):
            session.run(fn, retries=5)
        assert len(calls) == 1  # no retry for non-transactional errors

    def test_stats_accumulate_across_attempts(self):
        cluster = self.make()
        session = cluster.session()
        attempts = []

        def fn(tx):
            tx.read("kv", (5,))
            tx.write("kv", {"k": 5, "v": 1})
            attempts.append(tx)
            if len(attempts) == 1:
                raise TransactionAbortedError("first attempt")

        session.run(fn)
        # the aborted attempt's read, then read + write batch + commit
        assert session.stats.round_trips == 4
        assert session.stats.events == (attempts[0].stats.events
                                        + attempts[1].stats.events)
        # a session's stats are its latest run's, not every run's
        session.run(lambda tx: tx.read("kv", (5,)))
        assert session.stats.round_trips == 1


class TestStatsMerging:
    def test_access_stats_merge(self):
        from repro.ndb.stats import AccessEvent, AccessKind, AccessStats

        a = AccessStats()
        b = AccessStats()
        event = AccessEvent(kind=AccessKind.PK, table="t", partitions=(0,),
                            nodes=(0,), coordinator=0, rows=1)
        a.record(event)
        b.record(event)
        b.record(AccessEvent(kind=AccessKind.FULL_SCAN, table="t",
                             partitions=(0, 1), nodes=(0, 1), coordinator=0,
                             rows=10))
        a.merge(b)
        assert a.round_trips == 3
        assert a.rows_read == 12
        assert a.uses_expensive_scans
