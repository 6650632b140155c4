"""Assorted unit tests: id allocation, result types, run-result math,
sim-kernel error paths, cluster-level transaction helper."""

import pytest

from repro.hopsfs.types import DirectoryListing, FileStatus
from repro.perfmodel.results import RunResult
from repro.sim import Environment, SimError


class TestIdAllocator:
    def make_cluster(self):
        from repro.ndb import NDBCluster, NDBConfig, TableSchema

        cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2))
        cluster.create_table(TableSchema(
            name="sequences", columns=("name", "next_value"),
            primary_key=("name",)))
        with cluster.begin() as tx:
            tx.insert("sequences", {"name": "ids", "next_value": 100})
        return cluster

    def test_ids_monotonic_and_unique(self):
        from repro.hopsfs.tx import IdAllocator

        cluster = self.make_cluster()
        alloc = IdAllocator(cluster.session(), "ids", batch=10)
        ids = [alloc.next() for _ in range(35)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 35
        assert ids[0] == 100

    def test_batches_lease_from_table(self):
        from repro.hopsfs.tx import IdAllocator

        cluster = self.make_cluster()
        alloc = IdAllocator(cluster.session(), "ids", batch=10)
        alloc.next()
        with cluster.begin() as tx:
            row = tx.read("sequences", ("ids",))
        assert row["next_value"] == 110  # one batch leased

    def test_two_allocators_never_collide(self):
        from repro.hopsfs.tx import IdAllocator

        cluster = self.make_cluster()
        a = IdAllocator(cluster.session(), "ids", batch=5)
        b = IdAllocator(cluster.session(), "ids", batch=5)
        ids = [a.next() for _ in range(12)] + [b.next() for _ in range(12)]
        assert len(set(ids)) == 24

    def test_missing_sequence_raises(self):
        from repro.errors import FileSystemError
        from repro.hopsfs.tx import IdAllocator

        cluster = self.make_cluster()
        alloc = IdAllocator(cluster.session(), "ghost", batch=5)
        with pytest.raises(FileSystemError):
            alloc.next()


class TestResultTypes:
    def test_directory_listing_names_sorted(self):
        listing = DirectoryListing(path="/d")
        for name in ("zz", "aa"):
            listing.entries.append(FileStatus(
                path=f"/d/{name}", inode_id=1, is_dir=False, perm=0o644,
                owner="o", group="g", mtime=0, atime=0, size=0,
                replication=1))
        assert listing.names() == ["aa", "zz"]

    def test_file_status_frozen(self):
        status = FileStatus(path="/f", inode_id=1, is_dir=False, perm=0o644,
                            owner="o", group="g", mtime=0, atime=0, size=0,
                            replication=1)
        with pytest.raises(AttributeError):
            status.size = 5


class TestRunResult:
    def test_throughput_descaled(self):
        result = RunResult(system="x", duration=2.0, scale=0.1)
        for i in range(100):
            result.record("stat", i / 50, 0.001)
        assert result.operations == 100
        assert result.raw_throughput == 50.0
        assert result.throughput == 500.0

    def test_zero_duration_safe(self):
        result = RunResult(system="x", duration=0.0, scale=1.0)
        assert result.throughput == 0.0

    def test_p99_by_op(self):
        result = RunResult(system="x", duration=1.0, scale=1.0)
        for i in range(100):
            result.record("read", 0.5, i / 1000)
        for _ in range(10):
            result.record("create", 0.5, 1.0)
        # exact: every latency is kept
        assert result.p99_latency("read") == pytest.approx(0.09801)
        assert result.p99_latency() == 1.0  # over every op

    def test_completions_per_simulated_second(self):
        result = RunResult(system="x", duration=3.0, scale=1.0)
        for now in (0.5, 0.9, 2.1, 2.5, 2.9):
            result.record("stat", now, 0.01)
        result.record("create", 2.0, 0.1)
        assert result.completions == {0: 2, 2: 4}
        assert result.operations == 6
        assert result.mean_latency() == pytest.approx(0.15 / 6)

    def test_completions_missing_second_reads_zero(self):
        result = RunResult(system="x", duration=4.0, scale=1.0)
        for _ in range(4):
            result.record("stat", 1.0, 0.01)
        # a second with no completion has no entry: ``.get(s, 0)`` is 0
        assert result.completions.get(1, 0) == 4
        assert result.completions.get(0, 0) == 0
        assert result.completions.get(3, 0) == 0

    def test_completions_empty_run(self):
        result = RunResult(system="x", duration=5.0, scale=1.0)
        assert result.completions == {} and result.operations == 0
        result.record("stat", 2.5, 0.01)
        result.record("stat", 2.6, 0.01)
        # no zero-count seconds are filled in around the recorded one
        assert result.completions == {2: 2}


class TestSimKernelErrorPaths:
    def test_event_cannot_trigger_twice(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimError):
            ev.succeed(2)
        with pytest.raises(SimError):
            ev.fail(ValueError("x"))

    def test_value_before_trigger_raises(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimError):
            _ = ev.value

    def test_step_on_empty_heap(self):
        env = Environment()
        with pytest.raises(SimError):
            env.step()

    def test_run_backwards_rejected(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(SimError):
            env.run(until=5.0)

    def test_fail_requires_exception(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimError):
            ev.fail("not an exception")  # type: ignore[arg-type]


class TestClusterTransactionHelper:
    def test_run_in_transaction_commits(self):
        from repro.ndb import NDBCluster, NDBConfig, TableSchema

        cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2))
        cluster.create_table(TableSchema(name="kv", columns=("k", "v"),
                                         primary_key=("k",)))
        result = cluster.session().run(
            lambda tx: tx.insert("kv", {"k": 1, "v": 2}) or "done")
        assert result == "done"
        with cluster.begin() as tx:
            assert tx.read("kv", (1,))["v"] == 2

    def test_run_in_transaction_aborts_on_app_error(self):
        from repro.ndb import NDBCluster, NDBConfig, TableSchema

        cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2))
        cluster.create_table(TableSchema(name="kv", columns=("k", "v"),
                                         primary_key=("k",)))

        def fn(tx):
            tx.insert("kv", {"k": 1, "v": 2})
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cluster.session().run(fn)
        with cluster.begin() as tx:
            assert tx.read("kv", (1,)) is None
