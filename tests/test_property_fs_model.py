"""Stateful property-based test: HopsFS vs an oracle file system model.

Hypothesis drives random sequences of namespace operations against a
real HopsFS cluster and a trivial in-memory oracle; after every step the
observable namespace must match exactly, and every row keyed by an inode
id (blocks, xattrs, quotas) must be covered by that inode's
``sub_tables`` bits. A small name pool forces
collisions, duplicate creates, deletes of ancestors, and renames into
occupied targets.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import FileSystemError
from repro.hopsfs import schema as fs_schema
from tests.conftest import make_hopsfs

NAMES = ["a", "b", "c", "dd"]

name_strategy = st.sampled_from(NAMES)
depth_strategy = st.integers(min_value=1, max_value=3)


class FSOracle:
    """The simplest possible correct namespace model."""

    def __init__(self):
        self.entries: dict[str, str] = {}  # path -> "dir" | "file"

    def parent_ok(self, path: str) -> bool:
        parent = path.rsplit("/", 1)[0]
        return parent == "" or self.entries.get(parent) == "dir"

    def mkdirs(self, path: str) -> bool:
        parts = path.strip("/").split("/")
        current = ""
        for part in parts:
            current = f"{current}/{part}"
            kind = self.entries.get(current)
            if kind == "file":
                return False
            self.entries[current] = "dir"
        return True

    def create(self, path: str) -> bool:
        if path in self.entries or not self.parent_ok(path):
            return False
        self.entries[path] = "file"
        return True

    def delete(self, path: str) -> bool:
        if path not in self.entries:
            return False
        doomed = [p for p in self.entries
                  if p == path or p.startswith(path + "/")]
        for p in doomed:
            del self.entries[p]
        return True

    def rename(self, src: str, dst: str) -> bool:
        if src not in self.entries or dst in self.entries:
            return False
        if not self.parent_ok(dst):
            return False
        if dst == src or dst.startswith(src + "/"):
            return False
        moved = {}
        for p, kind in self.entries.items():
            if p == src or p.startswith(src + "/"):
                moved[dst + p[len(src):]] = kind
        for p in list(self.entries):
            if p == src or p.startswith(src + "/"):
                del self.entries[p]
        self.entries.update(moved)
        return True

    def listing(self, path: str):
        if path != "/" and self.entries.get(path) != "dir":
            return None
        prefix = "" if path == "/" else path
        depth = prefix.count("/") + 1
        return sorted(p.rsplit("/", 1)[-1] for p in self.entries
                      if p.startswith(prefix + "/")
                      and p.count("/") == depth)


class HopsFSStateMachine(RuleBasedStateMachine):
    paths = Bundle("paths")

    @initialize()
    def setup(self):
        self.fs = make_hopsfs(num_namenodes=1, num_datanodes=0)
        self.nn = self.fs.namenodes[0]
        self.oracle = FSOracle()

    def _path(self, components):
        return "/" + "/".join(components)

    @rule(target=paths, components=st.lists(name_strategy, min_size=1,
                                            max_size=3))
    def make_path(self, components):
        return self._path(components)

    @rule(path=paths)
    def mkdirs(self, path):
        expected = self.oracle.mkdirs(path)
        try:
            self.nn.mkdirs(path)
            actual = True
        except FileSystemError:
            actual = False
        assert actual == expected, f"mkdirs {path}"

    @rule(path=paths)
    def create(self, path):
        expected = self.oracle.create(path)
        try:
            self.nn.create(path, client="pbt", create_parents=False)
            self.nn.complete(path, "pbt")
            actual = True
        except FileSystemError:
            actual = False
        assert actual == expected, f"create {path}"

    @rule(path=paths)
    def add_block(self, path):
        """A file left under construction, with one block."""
        expected = self.oracle.create(path)
        try:
            self.nn.create(path, client="pbt", create_parents=False)
            self.nn.add_block(path, "pbt")
            actual = True
        except FileSystemError:
            actual = False
        assert actual == expected, f"add_block {path}"

    @rule(path=paths)
    def set_xattr(self, path):
        expected = path in self.oracle.entries
        try:
            self.nn.set_xattr(path, "user.k", "v")
            actual = True
        except FileSystemError:
            actual = False
        assert actual == expected, f"set_xattr {path}"

    @rule(path=paths)
    def set_quota(self, path):
        expected = self.oracle.entries.get(path) == "dir"
        try:
            self.nn.set_quota(path, 1000, None)
            actual = True
        except FileSystemError:
            actual = False
        assert actual == expected, f"set_quota {path}"

    @rule(path=paths)
    def delete(self, path):
        expected = self.oracle.delete(path)
        try:
            actual = self.nn.delete(path, recursive=True)
        except FileSystemError:
            actual = False
        assert actual == expected, f"delete {path}"

    @rule(src=paths, dst=paths)
    def rename(self, src, dst):
        expected = self.oracle.rename(src, dst)
        try:
            actual = self.nn.rename(src, dst)
        except FileSystemError:
            actual = False
        assert actual == expected, f"rename {src} -> {dst}"

    @rule(path=paths)
    def stat_matches(self, path):
        expected = self.oracle.entries.get(path)
        try:
            status = self.nn.get_file_info(path)
        except FileSystemError:
            # a file appears as an intermediate component; the path
            # cannot exist in the oracle either
            assert expected is None, path
            return
        if expected is None:
            assert status is None, f"stat {path} should be absent"
        else:
            assert status is not None, f"stat {path} should exist"
            assert status.is_dir == (expected == "dir"), path

    @rule(path=paths)
    def listing_matches(self, path):
        expected = self.oracle.listing(path)
        if expected is None:
            return
        try:
            actual = self.nn.list_status(path).names()
        except FileSystemError:
            actual = None
        assert actual == expected, f"ls {path}"

    @invariant()
    def root_listing_consistent(self):
        if not hasattr(self, "oracle"):
            return
        assert self.nn.list_status("/").names() == self.oracle.listing("/")

    @invariant()
    def no_orphan_rows(self):
        if not hasattr(self, "fs"):
            return
        session = self.fs.driver.session()
        inodes = session.run(lambda tx: tx.full_scan("inodes"))
        ids = {r["id"] for r in inodes} | {1}
        assert all(r["parent_id"] in ids for r in inodes)

    @invariant()
    def sub_rows_are_flagged(self):
        """Every row keyed by an inode id belongs to a live inode whose
        ``sub_tables`` bit covers it — what lets a delete skip the
        tables whose bit is clear."""
        if not hasattr(self, "fs"):
            return

        def scan(tx):
            bits = {r["id"]: r["sub_tables"] for r in tx.full_scan("inodes")}
            return bits, {table: tx.full_scan(table)
                          for table in fs_schema.SUB_TABLE_BITS}

        bits, rows = self.fs.driver.session().run(scan)
        for table, bit in fs_schema.SUB_TABLE_BITS.items():
            for row in rows[table]:
                inode_id = row["inode_id"]
                assert inode_id in bits, f"{table} row of gone inode {inode_id}"
                assert bits[inode_id] & bit, f"{table} row of {inode_id} unflagged"


HopsFSStateMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None)

TestHopsFSModel = HopsFSStateMachine.TestCase
