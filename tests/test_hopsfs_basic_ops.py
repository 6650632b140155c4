"""Functional tests for HopsFS inode operations (paper §5)."""

import pytest

from repro.errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundError_,
    InvalidPathError,
    IsDirectoryError_,
    LeaseConflictError,
    ParentNotDirectoryError,
    PermissionDeniedError,
)
from repro.hopsfs.ops_inode import LEASE_TIMEOUT


class TestMkdirs:
    def test_single_dir(self, client):
        assert client.mkdirs("/data")
        status = client.stat("/data")
        assert status.is_dir and status.perm == 0o755

    def test_nested_chain(self, client):
        assert client.mkdirs("/a/b/c/d/e")
        for path in ("/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/b/c/d/e"):
            assert client.stat(path).is_dir

    def test_idempotent(self, client):
        client.mkdirs("/data")
        assert client.mkdirs("/data")

    def test_over_file_fails(self, client):
        client.create("/data")
        with pytest.raises(FileAlreadyExistsError):
            client.mkdirs("/data")

    def test_through_file_fails(self, client):
        client.create("/f")
        with pytest.raises((ParentNotDirectoryError, FileAlreadyExistsError)):
            client.mkdirs("/f/sub")

    def test_root_is_noop(self, client):
        assert client.mkdirs("/")

    def test_custom_perm_owner(self, client):
        client.mkdirs("/home/alice", perm=0o700, owner="alice", group="staff")
        status = client.stat("/home/alice")
        assert status.perm == 0o700
        assert status.owner == "alice" and status.group == "staff"

    def test_updates_parent_mtime(self, fs, client):
        clock = fs.config.clock
        client.mkdirs("/parent")
        before = client.stat("/parent").mtime
        clock.advance(5.0)
        client.mkdirs("/parent/child")
        assert client.stat("/parent").mtime > before


class TestCreate:
    def test_create_file(self, client):
        status = client.create("/f.txt")
        assert not status.is_dir
        assert status.under_construction
        assert status.replication == 3

    def test_create_makes_parents(self, client):
        client.create("/deep/path/to/f")
        assert client.stat("/deep/path/to").is_dir

    def test_duplicate_fails(self, client):
        client.create("/f")
        with pytest.raises(FileAlreadyExistsError):
            client.create("/f")

    def test_overwrite(self, fs, client):
        client.write_file("/f", b"one")
        client.write_file("/f", b"two!", overwrite=True)
        assert client.stat("/f").size == 4

    def test_create_over_dir_fails(self, client):
        client.mkdirs("/d")
        with pytest.raises(FileAlreadyExistsError):
            client.create("/d")

    def test_create_root_fails(self, client):
        with pytest.raises(InvalidPathError):
            client.create("/")

    def test_custom_replication(self, client):
        status = client.create("/f", replication=2)
        assert status.replication == 2

    def test_complete_clears_under_construction(self, client):
        client.write_file("/f", b"")
        status = client.stat("/f")
        assert not status.under_construction

    def test_complete_a_file_whose_block_ids_do_not_follow_its_blocks(
            self, fs):
        """Each namenode leases its own range of block ids, so a file
        written through two of them has a second block whose id is below
        its first's."""
        nn1, nn2 = fs.namenodes
        nn1.create("/other", client="c")
        nn1.add_block("/other", "c")  # nn1 leases the first id range
        nn2.create("/f", client="c")
        first = nn2.add_block("/f", "c")
        nn2.block_received(first.datanodes[0], first.block_id, 7)
        second = nn1.add_block("/f", "c")
        nn1.block_received(second.datanodes[0], second.block_id, 3)
        assert second.block_id < first.block_id
        assert nn1.complete("/f", "c")
        status = nn1.get_file_info("/f")
        assert (status.size, status.under_construction) == (10, False)
        blocks = nn1.get_block_locations("/f").blocks
        assert [(b.block_id, b.size, b.state) for b in blocks] == [
            (first.block_id, 7, "complete"), (second.block_id, 3, "complete")]


class TestStatAndExists:
    def test_stat_missing_is_none(self, client):
        assert client.stat("/nope") is None
        assert not client.exists("/nope")

    def test_stat_root(self, client):
        status = client.stat("/")
        assert status.is_dir and status.inode_id == 1

    def test_stat_deep_missing_prefix(self, client):
        assert client.stat("/a/b/c/d") is None

    def test_stat_through_file(self, client):
        client.create("/f")
        with pytest.raises(ParentNotDirectoryError):
            client.stat("/f/sub")


class TestListStatus:
    def test_empty_dir(self, client):
        client.mkdirs("/empty")
        assert client.list_status("/empty").names() == []

    def test_sorted_children(self, client):
        client.mkdirs("/d")
        for name in ("zeta", "alpha", "mid"):
            client.create(f"/d/{name}")
        assert client.list_status("/d").names() == ["alpha", "mid", "zeta"]

    def test_list_file_returns_itself(self, client):
        client.create("/f")
        listing = client.list_status("/f")
        assert [e.path for e in listing.entries] == ["/f"]

    def test_list_root(self, client):
        client.mkdirs("/one")
        client.mkdirs("/two")
        assert client.list_status("/").names() == ["one", "two"]

    def test_list_missing_raises(self, client):
        with pytest.raises(FileNotFoundError_):
            client.list_status("/nope")

    def test_list_mixed_entries(self, client):
        client.mkdirs("/d/sub")
        client.create("/d/file")
        listing = client.list_status("/d")
        kinds = {e.path.rsplit("/", 1)[-1]: e.is_dir for e in listing.entries}
        assert kinds == {"sub": True, "file": False}


class TestDelete:
    def test_delete_file(self, client):
        client.write_file("/f", b"x")
        assert client.delete("/f")
        assert not client.exists("/f")

    def test_delete_missing_returns_false(self, client):
        assert client.delete("/nope") is False

    def test_delete_empty_dir(self, client):
        client.mkdirs("/d")
        assert client.delete("/d")
        assert not client.exists("/d")

    def test_delete_nonempty_needs_recursive(self, client):
        client.create("/d/f")
        with pytest.raises(DirectoryNotEmptyError):
            client.delete("/d")
        assert client.delete("/d", recursive=True)
        assert not client.exists("/d")

    def test_delete_root_fails(self, client):
        with pytest.raises(PermissionDeniedError):
            client.delete("/", recursive=True)

    def test_delete_frees_name_for_reuse(self, client):
        client.create("/f")
        client.delete("/f")
        client.mkdirs("/f")  # same name, different type
        assert client.stat("/f").is_dir


class TestRename:
    def test_rename_file_same_dir(self, client):
        client.write_file("/d/a", b"data")
        assert client.rename("/d/a", "/d/b")
        assert not client.exists("/d/a")
        assert client.read_file("/d/b") == b"data"

    def test_rename_across_dirs(self, client):
        client.mkdirs("/dst")
        client.write_file("/src/f", b"payload")
        assert client.rename("/src/f", "/dst/f")
        assert client.read_file("/dst/f") == b"payload"

    def test_rename_missing_src(self, client):
        client.mkdirs("/d")
        with pytest.raises(FileNotFoundError_):
            client.rename("/d/nope", "/d/other")

    def test_rename_to_existing_dst_fails(self, client):
        client.create("/a")
        client.create("/b")
        with pytest.raises(FileAlreadyExistsError):
            client.rename("/a", "/b")

    def test_rename_missing_dst_parent(self, client):
        client.create("/a")
        with pytest.raises(FileNotFoundError_):
            client.rename("/a", "/nodir/a")

    def test_rename_under_itself_fails(self, client):
        client.mkdirs("/d/sub")
        with pytest.raises(InvalidPathError):
            client.rename("/d", "/d/sub/d")

    def test_rename_empty_dir(self, client):
        client.mkdirs("/olddir")
        assert client.rename("/olddir", "/newdir")
        assert client.stat("/newdir").is_dir

    def test_rename_preserves_inode_id(self, client):
        client.create("/a")
        inode_id = client.stat("/a").inode_id
        client.rename("/a", "/b")
        assert client.stat("/b").inode_id == inode_id

    def test_rename_nonempty_dir_uses_subtree_move(self, client):
        client.write_file("/proj/src/main.py", b"print()")
        assert client.rename("/proj", "/project")
        assert client.read_file("/project/src/main.py") == b"print()"
        assert not client.exists("/proj")

    def test_rename_root_fails(self, client):
        with pytest.raises(PermissionDeniedError):
            client.rename("/", "/x")


class TestAttributes:
    def test_chmod_file(self, client):
        client.create("/f")
        client.set_permission("/f", 0o600)
        assert client.stat("/f").perm == 0o600

    def test_chmod_empty_dir(self, client):
        client.mkdirs("/d")
        client.set_permission("/d", 0o700)
        assert client.stat("/d").perm == 0o700

    def test_chmod_nonempty_dir_via_subtree(self, client):
        client.create("/d/f")
        client.set_permission("/d", 0o750)
        assert client.stat("/d").perm == 0o750
        # inner inodes are left intact (§6.2)
        assert client.stat("/d/f").perm == 0o644

    def test_chown(self, client):
        client.create("/f")
        client.set_owner("/f", "alice", "staff")
        status = client.stat("/f")
        assert status.owner == "alice" and status.group == "staff"

    def test_chown_nonempty_dir_via_subtree(self, client):
        client.create("/d/f")
        client.set_owner("/d", "bob", "eng")
        assert client.stat("/d").owner == "bob"

    def test_set_replication(self, client):
        client.write_file("/f", b"x")
        assert client.set_replication("/f", 2)
        assert client.stat("/f").replication == 2

    def test_set_replication_on_dir_fails(self, client):
        client.mkdirs("/d")
        with pytest.raises(IsDirectoryError_):
            client.set_replication("/d", 2)


class TestContentSummary:
    def test_counts(self, client):
        client.write_file("/top/a/f1", b"12345")
        client.write_file("/top/a/f2", b"123")
        client.write_file("/top/b/f3", b"1")
        summary = client.content_summary("/top")
        assert summary.file_count == 3
        assert summary.directory_count == 2
        assert summary.length == 9

    def test_file_summary(self, client):
        client.write_file("/f", b"xy")
        summary = client.content_summary("/f")
        assert summary.file_count == 1 and summary.length == 2


class TestAppend:
    def test_append_grows_file(self, client):
        client.write_file("/f", b"hello ")
        client.append("/f", b"world")
        assert client.read_file("/f") == b"hello world"

    def test_append_while_open_conflicts(self, fs, client):
        client.create("/f")  # under construction by test-client
        other = fs.client("other")
        with pytest.raises(LeaseConflictError):
            other.append("/f", b"x")


class TestLeases:
    def test_add_block_requires_lease_holder(self, fs, client):
        client.create("/f")
        with pytest.raises(LeaseConflictError):
            fs.any_namenode().add_block("/f", "intruder")

    def test_lease_recovery_closes_expired_file(self, fs, client):
        client.create("/f")
        assert client.stat("/f").under_construction
        fs.config.clock.advance(LEASE_TIMEOUT + 1)
        fs.tick()  # leader housekeeping recovers the lease
        assert not client.stat("/f").under_construction

    def test_renew_lease_prevents_recovery(self, fs, client):
        client.create("/f")
        fs.config.clock.advance(LEASE_TIMEOUT - 1)
        client.renew_lease()
        fs.config.clock.advance(2)
        fs.tick()
        assert client.stat("/f").under_construction


def test_multiple_clients_see_consistent_namespace(fs):
    a = fs.client("a")
    b = fs.client("b")
    a.mkdirs("/shared")
    assert b.exists("/shared")
    b.create("/shared/file")
    assert a.list_status("/shared").names() == ["file"]
