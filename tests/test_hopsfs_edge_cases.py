"""Edge cases and robustness tests for HopsFS."""

import pytest

from repro.errors import (
    ClusterDownError,
    QuotaExceededError,
)
from tests.conftest import make_hopsfs


class TestDeepAndWideNamespaces:
    def test_depth_twelve_paths(self, client):
        path = "/" + "/".join(f"l{i}" for i in range(12))
        client.mkdirs(path)
        assert client.stat(path).is_dir
        client.create(path + "/leaf")
        assert client.exists(path + "/leaf")

    def test_wide_directory(self, client):
        for i in range(120):
            client.create(f"/wide/f{i:03d}")
        listing = client.list_status("/wide")
        assert len(listing.entries) == 120
        assert listing.names() == sorted(f"f{i:03d}" for i in range(120))

    def test_long_names(self, client):
        name = "n" * 255
        client.create(f"/d/{name}")
        assert client.exists(f"/d/{name}")

    def test_names_with_special_characters(self, client):
        for name in ("with space", "dash-dot.ext", "uni·code", "a=b+c",
                     "%percent%"):
            client.create(f"/special/{name}")
        assert len(client.list_status("/special").entries) == 5

    def test_same_name_at_every_level(self, client):
        client.mkdirs("/x/x/x/x")
        client.create("/x/x/x/x/x")
        assert client.stat("/x/x/x/x/x") is not None
        assert not client.stat("/x/x/x/x/x").is_dir


class TestTopLevelOperations:
    """Depth-1/2 inodes live in the pseudo-randomly partitioned levels."""

    def test_top_level_file_lifecycle(self, client):
        client.write_file("/rootfile", b"top")
        assert client.read_file("/rootfile") == b"top"
        client.rename("/rootfile", "/rootfile2")
        assert client.read_file("/rootfile2") == b"top"
        assert client.delete("/rootfile2")

    def test_top_level_dir_rename(self, client):
        client.write_file("/proj/data/f", b"x")
        assert client.rename("/proj", "/project")
        assert client.read_file("/project/data/f") == b"x"

    def test_rename_dir_deeper_across_random_boundary(self, client):
        """A top-level directory moved deeper keeps its children reachable
        (the child-partition rule travels with the directory row)."""
        client.write_file("/top/a/b", b"y")
        client.mkdirs("/archive/2025")
        assert client.rename("/top", "/archive/2025/top")
        assert client.read_file("/archive/2025/top/a/b") == b"y"
        # and listing still works at every level
        assert client.list_status("/archive/2025/top").names() == ["a"]

    def test_rename_deep_dir_to_top_level(self, client):
        client.write_file("/a/b/c/data", b"z")
        assert client.rename("/a/b/c", "/promoted")
        assert client.read_file("/promoted/data") == b"z"


class TestRandomDepthConfigurations:
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_namespace_works_at_any_random_depth(self, depth):
        fs = make_hopsfs(num_namenodes=1, random_partition_depth=depth)
        client = fs.client("c")
        client.write_file("/a/b/c/d/file", b"data")
        assert client.read_file("/a/b/c/d/file") == b"data"
        assert client.list_status("/a/b").names() == ["c"]
        client.rename("/a/b/c/d/file", "/a/b/c/d/file2")
        assert client.delete("/a", recursive=True)
        assert fs.driver.table_size("inodes") == 0


class TestCreateOverwriteSemantics:
    def test_overwrite_replaces_blocks(self, fs, client):
        client.write_file("/f", b"0123456789")
        client.write_file("/f", b"new", overwrite=True)
        assert client.read_file("/f") == b"new"
        session = fs.driver.session()
        blocks = session.run(lambda tx: tx.full_scan("blocks"))
        assert len(blocks) == 1

    def test_overwrite_under_construction_file(self, fs, client):
        client.create("/f")  # left under construction
        client.write_file("/f", b"second", overwrite=True)
        assert client.read_file("/f") == b"second"
        assert fs.driver.table_size("leases") == 0


class TestQuotaDiskSpace:
    def test_ds_quota_enforced_on_add_block(self, fs):
        """Quota deltas fold asynchronously (leader housekeeping), so
        enforcement kicks in once the usage is visible."""
        small = make_hopsfs(block_size=10)
        client = small.client("q")
        client.mkdirs("/q")
        client.set_quota("/q", None, 50)  # bytes x replication
        client.write_file("/q/big", b"y" * 20, replication=2)  # 2 blk x 20
        small.tick()  # ds_used folds to 40
        with pytest.raises(QuotaExceededError):
            client.write_file("/q/more", b"zzz", replication=2)  # +20 > 50

    def test_quota_on_nested_dirs(self, fs, client):
        client.mkdirs("/outer/inner")
        client.set_quota("/outer", 10, None)
        client.set_quota("/outer/inner", 2, None)  # the dir itself counts
        client.create("/outer/inner/f1")
        fs.tick()  # inner ns_used folds to 2 (dir + f1)
        with pytest.raises(QuotaExceededError):
            client.create("/outer/inner/f2")  # inner quota binds first


class TestDatabaseFailuresDuringOps:
    def test_ops_survive_single_ndb_node_failure(self, fs, client):
        client.write_file("/pre", b"before")
        fs.driver.kill_node(0)
        # metadata service continues: replicas cover the partitions
        assert client.read_file("/pre") == b"before"
        client.write_file("/post", b"after")
        assert client.read_file("/post") == b"after"

    def test_cluster_down_surfaces_cleanly(self, fs, client):
        client.mkdirs("/d")
        fs.driver.kill_node(0)
        fs.driver.kill_node(1)  # whole node group gone
        with pytest.raises(ClusterDownError):
            for i in range(50):
                client.create(f"/d/f{i}")

    def test_ndb_recovery_preserves_namespace(self, fs, client):
        for i in range(10):
            client.create(f"/keep/f{i}")
        db = fs.driver
        db.complete_epoch()
        db.crash_and_recover()
        assert len(client.list_status("/keep").entries) == 10


class TestRenameChains:
    def test_rename_chain_preserves_content(self, client):
        client.write_file("/v0", b"payload")
        for i in range(8):
            assert client.rename(f"/v{i}", f"/v{i + 1}")
        assert client.read_file("/v8") == b"payload"
        assert not any(client.exists(f"/v{i}") for i in range(8))

    def test_swap_via_temp(self, client):
        client.write_file("/a", b"A")
        client.write_file("/b", b"B")
        client.rename("/a", "/tmp-swap")
        client.rename("/b", "/a")
        client.rename("/tmp-swap", "/b")
        assert client.read_file("/a") == b"B"
        assert client.read_file("/b") == b"A"

    def test_rename_into_renamed_dir(self, client):
        client.mkdirs("/old")
        client.write_file("/f", b"x")
        client.rename("/old", "/new")
        assert client.rename("/f", "/new/f")
        assert client.read_file("/new/f") == b"x"

    def test_reuse_of_renamed_source_name(self, client):
        client.write_file("/name", b"first")
        client.rename("/name", "/renamed")
        client.write_file("/name", b"second")  # the name is free again
        assert client.read_file("/name") == b"second"
        assert client.read_file("/renamed") == b"first"


class TestRootEdgeCases:
    def test_content_summary_of_root(self, client):
        client.write_file("/a/f", b"123")
        summary = client.content_summary("/")
        assert summary.file_count == 1
        assert summary.directory_count == 1
        assert summary.length == 3

    def test_stat_root_is_immutable_dir(self, client):
        status = client.stat("/")
        assert status.is_dir and status.perm == 0o755

    def test_chmod_root_rejected(self, fs, client):
        from repro.errors import FileSystemError

        client.mkdirs("/x")  # root non-empty -> subtree path
        with pytest.raises(FileSystemError):
            client.set_permission("/", 0o700)


class TestManyNamenodesSharedNamespace:
    def test_five_namenodes_interleave(self):
        fs = make_hopsfs(num_namenodes=5)
        for i, nn in enumerate(fs.namenodes):
            nn.mkdirs(f"/from-nn{i}")
        for nn in fs.namenodes:
            assert len(nn.list_status("/").entries) == 5

    def test_cold_cache_namenode_sees_everything(self):
        fs = make_hopsfs(num_namenodes=1)
        client = fs.client("c")
        client.write_file("/deep/tree/of/files/x", b"1")
        fresh = fs.add_namenode()
        assert fresh.get_file_info("/deep/tree/of/files/x") is not None
        assert fresh.hint_cache.hit_rate < 1.0  # resolved cold, repaired
        fresh.get_file_info("/deep/tree/of/files/x")
        assert fresh.resolver.batched_resolutions >= 1
