"""Tests for metadata partitioning and access-path discipline (paper §4).

These tests pin the paper's central performance claims at the functional
level: common operations use only cheap access paths (PK / batched PK /
partition-pruned scans), directory listings are pruned to one shard, path
resolution costs one batched read when the hint cache is hot, and the top
levels are spread over shards to avoid hotspots.
"""

import pytest

from repro.ndb import AccessKind
from tests.conftest import make_hopsfs


def op_stats(nn, fn):
    """Run one operation and return the AccessStats it generated."""
    before = nn.stats
    from repro.ndb.stats import AccessStats

    nn.stats = AccessStats()  # keep_events defaults True here
    try:
        fn()
        return nn.stats
    finally:
        nn.stats = before


class TestPartitionPlacement:
    def test_children_colocated_on_one_shard(self):
        fs = make_hopsfs()
        client = fs.client()
        client.mkdirs("/a/b/dir")  # depth 3: below the random boundary
        for i in range(10):
            client.create(f"/a/b/dir/f{i}")
        cluster = fs.driver.cluster
        session = fs.driver.session()
        rows = session.run(lambda tx: tx.full_scan(
            "inodes", predicate=lambda r: r["parent_id"] != 1))
        dir_id = client.stat("/a/b/dir").inode_id
        children = [r for r in rows if r["parent_id"] == dir_id]
        partitions = {cluster.partition_of("inodes",
                                           (r["part_key"], r["parent_id"],
                                            r["name"]))
                      for r in children}
        assert len(partitions) == 1

    def test_top_level_dirs_spread_over_shards(self):
        fs = make_hopsfs(ndb_nodes=4)
        client = fs.client()
        for i in range(24):
            client.mkdirs(f"/top{i}")
        cluster = fs.driver.cluster
        session = fs.driver.session()
        rows = session.run(lambda tx: tx.full_scan(
            "inodes", predicate=lambda r: r["parent_id"] == 1))
        partitions = {cluster.partition_of("inodes",
                                           (r["part_key"], r["parent_id"],
                                            r["name"]))
                      for r in rows}
        # with parent-id partitioning they would all share ONE partition
        assert len(partitions) > 4

    def test_random_depth_zero_disables_spreading(self):
        fs = make_hopsfs(random_partition_depth=0)
        client = fs.client()
        for i in range(10):
            client.mkdirs(f"/top{i}")
        cluster = fs.driver.cluster
        session = fs.driver.session()
        rows = session.run(lambda tx: tx.full_scan(
            "inodes", predicate=lambda r: r["parent_id"] == 1))
        partitions = {cluster.partition_of("inodes",
                                           (r["part_key"], r["parent_id"],
                                            r["name"]))
                      for r in rows}
        assert len(partitions) == 1  # the hotspot the paper describes

    def test_file_metadata_partitioned_by_inode(self):
        fs = make_hopsfs()
        client = fs.client()
        client.write_file("/a/b/f", b"x" * 10, replication=3)
        inode_id = client.stat("/a/b/f").inode_id
        cluster = fs.driver.cluster
        expected = cluster._pmap.partition_of((inode_id,))
        session = fs.driver.session()
        for table in ("blocks", "replicas"):
            rows = session.run(lambda tx, t=table: tx.full_scan(t))
            for row in rows:
                pk = tuple(row[c] for c in
                           cluster.schema(table).primary_key)
                assert cluster.partition_of(table, pk) == expected


class TestAccessPathDiscipline:
    @pytest.fixture
    def warm(self):
        fs = make_hopsfs(num_namenodes=1)
        client = fs.client()
        client.write_file("/proj/data/part-0001", b"x", replication=2)
        nn = fs.namenodes[0]
        nn.get_file_info("/proj/data/part-0001")  # warm the hint cache
        return fs, client, nn

    def test_stat_uses_one_batch_and_one_pk(self, warm):
        fs, client, nn = warm
        stats = op_stats(nn, lambda: nn.get_file_info("/proj/data/part-0001"))
        assert stats.count(AccessKind.BATCH_PK) == 1  # full path, one trip
        assert not stats.uses_expensive_scans
        assert stats.round_trips <= 3

    def test_read_uses_pruned_scans_only(self, warm):
        fs, client, nn = warm
        stats = op_stats(
            nn, lambda: nn.get_block_locations("/proj/data/part-0001"))
        assert not stats.uses_expensive_scans
        # blocks + replicas ride the batched read of the hinted path: one
        # round trip, one event, and both tables sit on the file's own
        # shard (the two partitions after the three path components')
        [event] = stats.events
        assert event.kind is AccessKind.BATCH_PK
        assert event.table == "inodes+blocks+replicas"
        scanned = event.partitions[3:]
        assert len(scanned) == 2 and len(set(scanned)) == 1
        assert event.locked  # the S lock on the file's inode, as before
        assert stats.count(AccessKind.PPIS) == 0

    def test_deep_ls_is_partition_pruned(self, warm):
        fs, client, nn = warm
        stats = op_stats(nn, lambda: nn.list_status("/proj/data"))
        # the children scan is pruned to one shard and rides the batched
        # read of the hinted path: one event, two components + one scan
        [event] = stats.events
        assert event.kind is AccessKind.BATCH_PK and event.table == "inodes"
        assert len(event.partitions) == 2 + 1
        assert not stats.uses_expensive_scans
        # a cold listing walks the two components, then issues the same
        # batched read over the rows it found — the children scan rides
        # it, the resolver never scans on its own: the same rows
        warm = nn.list_status("/proj/data")
        nn.hint_cache.clear()
        cold = op_stats(nn, lambda: nn.list_status("/proj/data"))
        assert [e.kind for e in cold.events] == [
            AccessKind.PK, AccessKind.PK, AccessKind.BATCH_PK]
        assert len(cold.events[-1].partitions) == 2 + 1
        assert cold.count(AccessKind.PPIS) == 0
        assert not cold.uses_expensive_scans
        assert nn.list_status("/proj/data") == warm

    def test_top_level_ls_uses_index_scan(self, warm):
        """The documented price of hotspot avoidance (§4.2.1)."""
        fs, client, nn = warm
        stats = op_stats(nn, lambda: nn.list_status("/proj"))
        assert stats.count(AccessKind.INDEX_SCAN) == 1

    def test_create_avoids_expensive_scans(self, warm):
        fs, client, nn = warm
        stats = op_stats(nn, lambda: nn.create("/proj/data/new-file",
                                               client="c"))
        assert not stats.uses_expensive_scans

    def test_delete_avoids_expensive_scans(self, warm):
        fs, client, nn = warm
        stats = op_stats(nn, lambda: nn.delete("/proj/data/part-0001"))
        assert not stats.uses_expensive_scans

    def test_rename_file_avoids_expensive_scans(self, warm):
        fs, client, nn = warm
        stats = op_stats(
            nn, lambda: nn.rename("/proj/data/part-0001",
                                  "/proj/data/part-0002"))
        assert not stats.uses_expensive_scans


class TestInodeHintCacheEffect:
    def test_cold_cache_resolves_recursively(self):
        fs = make_hopsfs(num_namenodes=1)
        client = fs.client()
        client.mkdirs("/w/x/y/z")
        nn = fs.namenodes[0]
        nn.hint_cache.clear()
        before = nn.resolver.recursive_resolutions
        nn.get_file_info("/w/x/y/z")
        assert nn.resolver.recursive_resolutions == before + 1

    def test_cold_walk_then_stale_reread_still_counts_recursive(self):
        """The gauges name the walk that served the op: a cold walk whose
        batched re-read finds a row moved walks the (now repaired) hints
        next, but the op was served by the recursive resolve."""
        fs = make_hopsfs(num_namenodes=1)
        fs.client().mkdirs("/w/x/y")
        nn = fs.namenodes[0]
        nn.hint_cache.clear()
        read_plan, calls = nn.resolver._read_plan, []

        def stale_once(*args):
            calls.append(args)
            return (None, None) if len(calls) == 1 else read_plan(*args)

        nn.resolver._read_plan = stale_once
        before = (nn.resolver.recursive_resolutions,
                  nn.resolver.batched_resolutions)
        assert nn.get_file_info("/w/x/y") is not None
        assert len(calls) == 2
        assert (nn.resolver.recursive_resolutions,
                nn.resolver.batched_resolutions) == (before[0] + 1, before[1])

    def test_warm_cache_uses_single_batch(self):
        fs = make_hopsfs(num_namenodes=1)
        client = fs.client()
        client.mkdirs("/w/x/y/z")
        nn = fs.namenodes[0]
        nn.get_file_info("/w/x/y/z")  # cold: repairs cache
        before = nn.resolver.batched_resolutions
        nn.get_file_info("/w/x/y/z")
        assert nn.resolver.batched_resolutions == before + 1

    def test_stale_hint_falls_back_and_repairs(self):
        """A move on one namenode leaves stale hints on another (§5.1.1)."""
        fs = make_hopsfs(num_namenodes=2)
        nn1, nn2 = fs.namenodes
        nn1.mkdirs("/d")
        nn1.create("/d/old", client="c")
        nn2.get_file_info("/d/old")  # warm nn2's cache
        nn1.rename("/d/old", "/d/new")  # nn2 now holds a stale hint
        assert nn2.get_file_info("/d/old") is None
        assert nn2.get_file_info("/d/new") is not None

    @staticmethod
    def _stale_hint_under_lock(fs):
        nn1, nn2 = fs.namenodes
        nn1.mkdirs("/d")
        nn1.create("/d/f", client="c")
        stale_id = nn2.get_file_info("/d/f").inode_id  # warm nn2's cache
        assert nn1.delete("/d/f")
        nn1.create("/d/f", client="c")  # same pk, new inode id
        parent_id = nn2.get_file_info("/d").inode_id
        assert nn2.hint_cache.get(parent_id, "f").inode_id == stale_id

        nn2.set_permission("/d/f", 0o600)  # X-locks the last component

        fresh = nn2.get_file_info("/d/f")
        assert fresh.perm == 0o600 and fresh.inode_id != stale_id
        assert nn2.hint_cache.get(parent_id, "f").inode_id == fresh.inode_id
        assert nn2.metrics.counter("fs_op_tx_retries_total",
                                   op="chmod").value == 1
        # the retry itself is counted where the session lives: on the
        # engine's (or the remote driver's) registry
        assert fs.driver.metrics_registry().counter(
            "ndb_tx_retries_total", reason="StalePathHintError").value == 1

    def test_stale_hint_under_lock_aborts_repairs_and_retries_once(self):
        """The batched resolve locks hint-derived keys; a hint found stale
        *under* that lock (StalePathHintError) must abort, release the
        lock on the stale key, repair the hint and retry transparently."""
        fs = make_hopsfs(num_namenodes=2)
        self._stale_hint_under_lock(fs)
        assert fs.driver.cluster._locks.lock_table_size() == 0

    def test_stale_hint_under_lock_retries_once_on_the_memory_driver(self):
        """Clients never see StalePathHintError, whatever the driver: the
        memory session runs the same retry loop as the other two."""
        from repro.dal import MemoryDriver
        from repro.hopsfs import HopsFSCluster, HopsFSConfig
        from repro.util.clock import ManualClock

        self._stale_hint_under_lock(HopsFSCluster(
            num_namenodes=2, config=HopsFSConfig(clock=ManualClock()),
            driver=MemoryDriver()))

    def test_stale_hint_under_lock_retries_once_on_the_remote_driver(self):
        from repro.dal import RemoteDriver
        from repro.hopsfs import HopsFSCluster, HopsFSConfig
        from repro.ndb import NDBConfig
        from repro.rpc import NDBServer
        from repro.util.clock import ManualClock

        with NDBServer(config=NDBConfig(num_datanodes=4, replication=2,
                                        lock_timeout=1.0)) as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            try:
                self._stale_hint_under_lock(HopsFSCluster(
                    num_namenodes=2,
                    config=HopsFSConfig(clock=ManualClock()),
                    driver=driver))
            finally:
                driver.close()

    def test_resolution_round_trip_reduction(self):
        """Paper §5.1: cache hits reduce N round trips to 1 for the path
        prefix."""
        fs = make_hopsfs(num_namenodes=1)
        client = fs.client()
        client.mkdirs("/a/b/c/d/e/f/g")  # path of depth 7 (Spotify mean)
        nn = fs.namenodes[0]
        nn.hint_cache.clear()
        cold = op_stats(nn, lambda: nn.get_file_info("/a/b/c/d/e/f/g"))
        warm = op_stats(nn, lambda: nn.get_file_info("/a/b/c/d/e/f/g"))
        assert warm.round_trips < cold.round_trips
        assert warm.count(AccessKind.BATCH_PK) == 1


class TestDistributionAwareTransactions:
    def test_hinted_ops_do_local_reads(self):
        """With a partition-key hint the file-metadata reads happen on the
        transaction coordinator's own node (§2.2)."""
        fs = make_hopsfs(num_namenodes=1)
        client = fs.client()
        client.write_file("/p/q/file", b"x")
        nn = fs.namenodes[0]
        nn.get_block_locations("/p/q/file")  # warm cache
        stats = op_stats(nn, lambda: nn.get_block_locations("/p/q/file"))
        # the scans ride the path's batched read; their shard (the last
        # two partitions of the event) is the coordinator's own
        [event] = stats.events
        assert event.table == "inodes+blocks+replicas"
        primary = fs.driver.cluster.primary_table()
        assert {primary[pid] for pid in event.partitions[-2:]} == {
            event.coordinator}
