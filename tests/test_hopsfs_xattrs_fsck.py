"""Tests for extended attributes (§9) and the declarative fsck (§8/[20])."""

import pytest

from repro.errors import FileNotFoundError_, InvalidPathError
from repro.hopsfs.fsck import Fsck


class TestXattrs:
    def test_set_get_roundtrip(self, fs, client):
        client.write_file("/f", b"")
        client.set_xattr("/f", "user.project", "genomics")
        client.set_xattr("/f", "user.owner-team", "research")
        assert client.get_xattrs("/f") == {
            "user.project": "genomics",
            "user.owner-team": "research",
        }

    def test_overwrite_value(self, fs, client):
        client.write_file("/f", b"")
        client.set_xattr("/f", "k", "v1")
        client.set_xattr("/f", "k", "v2")
        assert client.get_xattrs("/f") == {"k": "v2"}

    def test_xattrs_on_directories(self, fs, client):
        client.mkdirs("/d")
        client.set_xattr("/d", "user.retention", "90d")
        assert client.get_xattrs("/d")["user.retention"] == "90d"

    def test_remove(self, fs, client):
        client.write_file("/f", b"")
        client.set_xattr("/f", "k", "v")
        assert client.remove_xattr("/f", "k") is True
        assert client.remove_xattr("/f", "k") is False
        assert client.get_xattrs("/f") == {}

    def test_root_roundtrip(self, fs, client):
        # "/" has no path component and so no hint to carry its scan: the
        # resolver issues it, as for any last row it was not hinted
        client.set_xattr("/", "user.cluster", "prod")
        assert client.get_xattrs("/") == {"user.cluster": "prod"}
        assert client.remove_xattr("/", "user.cluster") is True
        assert client.remove_xattr("/", "user.cluster") is False
        assert client.get_xattrs("/") == {}

    def test_missing_path(self, fs, client):
        with pytest.raises(FileNotFoundError_):
            client.set_xattr("/ghost", "k", "v")

    def test_empty_name_rejected(self, fs, client):
        client.write_file("/f", b"")
        with pytest.raises(InvalidPathError):
            client.set_xattr("/f", "", "v")

    def test_deleted_file_cleans_xattrs(self, fs, client):
        client.write_file("/f", b"")
        client.set_xattr("/f", "k", "v")
        client.delete("/f")
        assert fs.driver.table_size("xattrs") == 0

    def test_subtree_delete_cleans_xattrs(self, fs, client):
        client.write_file("/d/f1", b"")
        client.write_file("/d/f2", b"")
        client.set_xattr("/d/f1", "k", "v")
        client.set_xattr("/d", "k", "v")
        client.delete("/d", recursive=True)
        assert fs.driver.table_size("xattrs") == 0

    def test_xattrs_survive_rename(self, fs, client):
        client.write_file("/a", b"")
        client.set_xattr("/a", "k", "v")
        client.rename("/a", "/b")
        assert client.get_xattrs("/b") == {"k": "v"}

    def test_xattrs_use_pruned_scans(self, fs):
        client = fs.client("x")
        client.write_file("/f", b"")
        client.set_xattr("/f", "k", "v")
        nn = fs.namenodes[0]
        nn.get_xattrs("/f")  # warm cache
        with nn.recording() as stats:
            nn.get_xattrs("/f")
        assert not stats.uses_expensive_scans


class TestFsck:
    def test_clean_namespace_is_healthy(self, fs, client):
        client.write_file("/a/b/f", b"data", replication=2)
        client.mkdirs("/a/c")
        client.set_xattr("/a/b/f", "k", "v")
        report = Fsck(fs.any_namenode()).run()
        assert report.healthy, report.issues
        assert report.inodes_checked == 4
        assert report.blocks_checked == 1

    def _raw(self, fs, fn):
        session = fs.driver.session()
        return session.run(fn)

    def test_detects_dangling_block(self, fs, client):
        client.write_file("/f", b"x")
        self._raw(fs, lambda tx: tx.insert("blocks", {
            "inode_id": 999, "block_id": 888, "idx": 0, "size": 0,
            "gen_stamp": 1, "state": "complete"}))
        report = Fsck(fs.any_namenode()).run()
        assert "dangling-block" in report.by_check()

    def test_detects_stale_lookup(self, fs, client):
        self._raw(fs, lambda tx: tx.insert("block_lookup",
                                           {"block_id": 777,
                                            "inode_id": 999}))
        report = Fsck(fs.any_namenode()).run()
        assert "stale-block-lookup" in report.by_check()

    def test_detects_missing_lookup_and_repairs(self, fs, client):
        client.write_file("/f", b"x")
        blocks = self._raw(fs, lambda tx: tx.full_scan("blocks"))
        self._raw(fs, lambda tx: tx.delete(
            "block_lookup", (blocks[0]["block_id"],)))
        report = Fsck(fs.any_namenode()).run(repair=True)
        assert "missing-block-lookup" in report.by_check()
        assert report.repaired >= 1
        assert Fsck(fs.any_namenode()).run().healthy

    def test_detects_unqueued_under_replication(self, fs, client):
        client.write_file("/f", b"x", replication=3)
        replicas = self._raw(fs, lambda tx: tx.full_scan("replicas"))
        victim = replicas[0]
        self._raw(fs, lambda tx: tx.delete(
            "replicas", (victim["inode_id"], victim["block_id"],
                         victim["dn_id"])))
        report = Fsck(fs.any_namenode()).run(repair=True)
        assert "unqueued-under-replication" in report.by_check()
        # repair queued the work; the replication monitor finishes it
        fs.tick()
        fs.tick()
        assert len(self._raw(fs, lambda tx: tx.full_scan("replicas"))) == 3

    def test_detects_lease_on_closed_file(self, fs, client):
        client.write_file("/f", b"")
        inode_id = client.stat("/f").inode_id
        self._raw(fs, lambda tx: tx.insert("leases", {
            "inode_id": inode_id, "holder": "ghost", "last_renewed": 0.0}))
        report = Fsck(fs.any_namenode()).run(repair=True)
        assert "lease-on-closed-file" in report.by_check()
        assert Fsck(fs.any_namenode()).run().healthy

    def test_detects_dangling_xattr(self, fs, client):
        self._raw(fs, lambda tx: tx.insert("xattrs", {
            "inode_id": 4242, "name": "k", "value": "v"}))
        report = Fsck(fs.any_namenode()).run(repair=True)
        assert "dangling-xattrs" in report.by_check()
        assert Fsck(fs.any_namenode()).run().healthy

    def test_detects_and_repairs_unflagged_sub_row(self, fs, client):
        """A row the inode's ``sub_tables`` bits do not cover would be
        left behind by a subtree delete; repair sets the bit."""
        client.write_file("/d/f", b"")
        client.write_file("/d/g", b"")
        inode_id = client.stat("/d/f").inode_id
        self._raw(fs, lambda tx: tx.insert("xattrs", {
            "inode_id": inode_id, "name": "k", "value": "v"}))
        report = Fsck(fs.any_namenode()).run(repair=True)
        [issue] = report.issues
        assert (issue.check, issue.table, issue.key) == (
            "unflagged-sub-row", "xattrs", (inode_id, "k"))
        assert report.repaired == 1
        assert Fsck(fs.any_namenode()).run().healthy
        assert client.delete("/d", recursive=True)
        assert fs.driver.table_size("xattrs") == 0

    def test_detects_and_repairs_stale_subtree_lock(self, fs, client):
        client.create("/stuck/f")
        victim = fs.namenodes[0]
        victim._subtree_begin("/stuck", "delete")
        victim.kill()
        for _ in range(3):
            fs.tick_heartbeats()
        survivor = fs.namenodes[1]
        report = Fsck(survivor).run(repair=True)
        assert "stale-subtree-lock" in report.by_check()
        assert Fsck(survivor).run().healthy
        assert fs.client("c2").delete("/stuck", recursive=True)

    def test_orphaned_inode_reported_not_repaired(self, fs, client):
        self._raw(fs, lambda tx: tx.insert("inodes", {
            "part_key": 12345, "parent_id": 12345, "name": "lost",
            "id": 777777, "is_dir": False, "perm": 0o644, "owner": "x",
            "group": "x", "mtime": 0.0, "atime": 0.0, "size": 0,
            "replication": 1, "under_construction": False, "client": None,
            "subtree_lock_owner": -1, "subtree_op": None, "depth": 1,
            "children_random": False, "sub_tables": 0}))
        report = Fsck(fs.any_namenode()).run(repair=True)
        issues = [i for i in report.issues if i.check == "orphaned-inode"]
        assert issues and not issues[0].repairable
        # still present: structural problems are never auto-deleted
        rows = self._raw(fs, lambda tx: tx.full_scan(
            "inodes", predicate=lambda r: r["name"] == "lost"))
        assert rows
