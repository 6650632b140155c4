"""Inode operations (paper §5): single-transaction file system operations.

Each public method encapsulates one file system operation in one DAL
transaction following the lock→execute→update template in
:mod:`repro.hopsfs.tx`. Locks are taken in root-down path order at the
strongest level the operation needs (no upgrades); read-only operations
take shared locks, mutations exclusive locks; creates/deletes/listing also
lock the parent directory to prevent phantoms (§5.2.1).

Operations that may touch an unbounded number of inodes (delete/move/
chmod/chown/set-quota on non-empty directories) are dispatched to the
subtree-operations protocol in :mod:`repro.hopsfs.ops_subtree`.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
from repro.dal.driver import DALTransaction
from repro.hopsfs import blocks as blk
from repro.hopsfs import quota as quota_mod
from repro.hopsfs import schema as fs_schema
from repro.hopsfs.hintcache import InodeHint
from repro.hopsfs.paths import join_path, split_path
from repro.hopsfs.tx import Handoff, ResolvedPath
from repro.metrics.tracing import span
from repro.hopsfs.types import (
    BlockLocation,
    ContentSummary,
    DirectoryListing,
    FileStatus,
    LocatedBlocks,
)
from repro.ndb.locks import LockMode

#: replication factor of a file created without one
DEFAULT_REPLICATION = 3
#: seconds without renewal before a lease may be recovered
LEASE_TIMEOUT = 60.0


def _sub_tables(bits: int) -> tuple[str, ...]:
    """The ``inode_id``-partitioned tables an inode's ``sub_tables``
    bits say can hold its rows and a delete must scan (``ec_files`` and
    ``quotas`` are deleted by primary key, unscanned)."""
    tables = blk.FILE_BLOCK_TABLES if bits & fs_schema.SUB_BLOCKS else ()
    if bits & fs_schema.SUB_XATTRS:
        tables += ("xattrs",)
    if bits & fs_schema.SUB_EC:
        tables += ("ec_groups",)
    return tables


def _hint_bits(is_dir: bool) -> int:
    """The ``sub_tables`` bits a hint cannot rule out, before the row is
    read: every one but blocks on a directory, but quota on a file."""
    return (fs_schema.SUB_XATTRS | fs_schema.SUB_EC
            | (fs_schema.SUB_QUOTA if is_dir else fs_schema.SUB_BLOCKS))


def _sub_row_scans(inodes: Sequence[tuple[int, int]]) -> list[tuple]:
    """The scans finding everything that hangs off each ``(inode_id,
    sub_tables bits)`` — one ``ppis_batch``, or riding the resolve of
    the one inode a hint names."""
    return [(table, {"inode_id": inode_id})
            for inode_id, bits in inodes
            for table in _sub_tables(bits)]


def _group_sub_rows(inodes: Sequence[tuple[int, int]],
                    scanned: Sequence[list[dict]],
                    ) -> dict[int, dict[str, list[dict]]]:
    """Results of :func:`_sub_row_scans` as ``{inode_id: {table: rows}}``."""
    found = iter(scanned)
    return {inode_id: {table: next(found) for table in _sub_tables(bits)}
            for inode_id, bits in inodes}


# What an operation reads after its resolve, told from the last
# component's hint (:data:`repro.hopsfs.tx.ScansFor`): these ride the
# resolve's batched read when the namenode knows the inode, else the
# resolver issues them. A directory has no blocks: the ops below raise
# on one, nothing to read.

def _block_scans(hint: InodeHint) -> list[tuple]:
    return [] if hint.is_dir else [("blocks", {"inode_id": hint.inode_id})]


def _block_replica_scans(hint: InodeHint) -> list[tuple]:
    on_shard = {"inode_id": hint.inode_id}
    return [] if hint.is_dir else [("blocks", on_shard),
                                   ("replicas", on_shard)]


def _xattr_scans(hint: InodeHint) -> list[tuple]:
    return [("xattrs", {"inode_id": hint.inode_id})]


def _own_sub_row_scans(hint: InodeHint) -> list[tuple]:
    return _sub_row_scans([(hint.inode_id, _hint_bits(hint.is_dir))])


def _listing_scans(hint: InodeHint) -> Optional[list[tuple]]:
    if not hint.is_dir:
        return []  # a file lists as itself
    if hint.children_random:
        return None  # an all-shard index scan: nothing to prune to
    return [("inodes", {"part_key": hint.inode_id})]


class InodeOpsMixin:
    """File system operations mixed into :class:`repro.hopsfs.namenode.NameNode`."""

    # ------------------------------------------------------------------ helpers

    def _new_inode_row(self, parent_row: dict, name: str, depth: int,
                       is_dir: bool, perm: int, owner: str, group: str,
                       replication: int = 0, under_construction: bool = False,
                       client: Optional[str] = None) -> dict:
        now = self.clock.now()
        return {
            "part_key": self.resolver.child_part_key(
                parent_row["children_random"], parent_row["id"], name),
            "parent_id": parent_row["id"],
            "name": name,
            "id": self.id_alloc.next(),
            "is_dir": is_dir,
            "perm": perm,
            "owner": owner,
            "group": group,
            "mtime": now,
            "atime": now,
            "size": 0,
            "replication": replication,
            "under_construction": under_construction,
            "client": client,
            "subtree_lock_owner": fs_schema.NO_LOCK,
            "subtree_op": None,
            "depth": depth,
            "children_random": (
                is_dir and self.resolver.children_random_for_new_dir(depth)),
            "sub_tables": 0,
        }

    def _status(self, path: str, row: dict) -> FileStatus:
        return FileStatus(
            path=path,
            inode_id=row["id"],
            is_dir=row["is_dir"],
            perm=row["perm"],
            owner=row["owner"],
            group=row["group"],
            mtime=row["mtime"],
            atime=row["atime"],
            size=row["size"],
            replication=row["replication"],
            under_construction=bool(row["under_construction"]),
        )

    def _require(self, resolved: ResolvedPath) -> dict:
        row = resolved.last
        if row is None:
            raise FileNotFoundError_(resolved.path)
        return row

    def _touch_parent(self, tx: DALTransaction, parent_row: dict) -> None:
        """Update the parent's mtime (parent row already X-locked)."""
        if parent_row["id"] == fs_schema.ROOT_ID:
            return  # the root inode is immutable (§4.2.1)
        tx.update("inodes",
                  (parent_row["part_key"], parent_row["parent_id"],
                   parent_row["name"]),
                  {"mtime": self.clock.now()})

    def _quota_ancestors(self, resolved: ResolvedPath,
                         upto: int) -> list[int]:
        """Ids of the existing ancestors among the first ``upto`` path
        components whose row's ``sub_tables`` bits say a quota row can
        hang off it: the only quotas a mutation must read (see
        :mod:`repro.hopsfs.quota` for why the resolve's rows suffice).
        The root is never one: ``set_quota`` refuses it."""
        ids = []
        for row in resolved.rows[:upto]:
            if row is None:
                break
            if row["sub_tables"] & fs_schema.SUB_QUOTA:
                ids.append(row["id"])
        return ids

    def _list_children(self, tx: DALTransaction, dir_row: dict,
                       columns: Optional[Sequence[str]] = None) -> list[dict]:
        """Children of a directory.

        Ordinary directories co-locate their children on one shard, so
        listing is a partition-pruned scan. Directories whose children are
        pseudo-randomly partitioned (the top levels) need an all-shard
        index scan — the documented cost of hotspot avoidance (§4.2.1).
        """
        dir_id = dir_row["id"]
        if dir_row["children_random"]:
            # hfs: allow(HFS101, reason=random-partitioned dirs spread children across shards by design; §4.2.1)
            rows = tx.index_scan("inodes", "by_parent", (dir_id,))
            if columns is not None:
                rows = [{c: r[c] for c in columns} for r in rows]
            return rows
        return tx.ppis("inodes", {"part_key": dir_id},
                       predicate=lambda r: r["parent_id"] == dir_id,
                       columns=columns)

    def _has_children(self, tx: DALTransaction, dir_row: dict) -> bool:
        return bool(self._list_children(tx, dir_row, columns=("id",)))

    def _lock_inode_by_id(self, tx: DALTransaction, inode_id: int,
                          lock: LockMode = LockMode.EXCLUSIVE) -> Optional[dict]:
        """Lock an inode known only by id (datanode-triggered paths)."""
        # rt: bound(1, reason=retry only races a concurrent rename; warm path locks on the first attempt)
        for _attempt in range(3):
            # hfs: allow(HFS101, reason=id-only lookup has no path to prune on; bounded retry, rare datanode-triggered path)
            matches = tx.index_scan("inodes", "by_id", (inode_id,))
            if not matches:
                return None
            row = matches[0]
            locked = tx.read(
                "inodes", (row["part_key"], row["parent_id"], row["name"]),
                lock=lock)
            if locked is not None and locked["id"] == inode_id:
                return locked
        return None

    # ------------------------------------------------------------------ mkdirs

    def mkdirs(self, path: str, perm: int = 0o755, owner: str = "hdfs",
               group: str = "hdfs") -> bool:
        """Create a directory and any missing ancestors. Idempotent."""

        def fn(tx: DALTransaction) -> bool:
            # rt: cost(1, reason=warm mkdir resolve: one batch locking the hinted parent and the computed key of the missing last component)
            resolved = self.resolver.resolve(
                tx, path, lock_last=LockMode.EXCLUSIVE,
                lock_parent=LockMode.EXCLUSIVE, plan=plan)
            if resolved.exists:
                if not resolved.last["is_dir"]:
                    raise FileAlreadyExistsError(f"{path} exists and is a file")
                return True  # already there
            if not resolved.components:
                return True  # mkdir of root
            depth = resolved.existing_prefix_depth
            parent_row = (resolved.rows[depth - 1] if depth > 0
                          else self.resolver.root_row())
            if not parent_row["is_dir"]:
                raise ParentNotDirectoryError(join_path(
                    resolved.components[:depth]))
            created = 0
            for i in range(depth, len(resolved.components)):
                name = resolved.components[i]
                row = self._new_inode_row(
                    parent_row=parent_row, name=name, depth=i + 1,
                    is_dir=True, perm=perm, owner=owner, group=group)
                tx.insert("inodes", row)
                self.hint_cache.put(parent_row["id"], name, row["id"],
                                    row["part_key"], True,
                                    row["children_random"])
                parent_row = row
                created += 1
            quota_mod.enforce_and_queue(
                tx, self._quota_ancestors(resolved, upto=depth),
                ns_delta=created, ds_delta=0, nn_id=self.nn_id)
            if depth > 0:
                self._touch_parent(tx, resolved.rows[depth - 1])
            return True

        hint, plan = self.resolver.tx_hint(path)
        return self._fs_op("mkdirs", fn, hint=hint, retry_duplicates=True)

    # ------------------------------------------------------------------ create

    def create(self, path: str, perm: int = 0o644, owner: str = "hdfs",
               group: str = "hdfs", client: str = "client",
               replication: Optional[int] = None,
               create_parents: bool = True,
               overwrite: bool = False) -> FileStatus:
        """Create a file under construction (an HDFS ``create``)."""
        repl = replication if replication is not None else DEFAULT_REPLICATION

        def fn(tx: DALTransaction) -> FileStatus:
            # rt: cost(1, reason=warm create resolve: one batch locking the hinted parent and the computed key of the missing last component)
            resolved = self.resolver.resolve(
                tx, path, lock_last=LockMode.EXCLUSIVE,
                lock_parent=LockMode.EXCLUSIVE,
                scans_for=_own_sub_row_scans if overwrite else None,
                plan=plan)
            if not resolved.components:
                raise InvalidPathError("cannot create the root")
            if resolved.exists:
                existing = resolved.last
                if existing["is_dir"]:
                    raise FileAlreadyExistsError(f"{path} is a directory")
                if not overwrite:
                    raise FileAlreadyExistsError(path)
                # rt: offpath(reason=overwrite variant; the pinned warm create targets a fresh path)
                self._delete_file_rows(tx, resolved, existing)
            parent_row = resolved.parent
            if parent_row is None:
                raise FileNotFoundError_(
                    f"parent of {path} does not exist")
            if not parent_row["is_dir"]:
                raise ParentNotDirectoryError(parent_row["name"])
            name = resolved.components[-1]
            row = self._new_inode_row(
                parent_row=parent_row, name=name,
                depth=len(resolved.components), is_dir=False, perm=perm,
                owner=owner, group=group, replication=repl,
                under_construction=True, client=client)
            tx.insert("inodes", row)
            tx.write("leases", {"inode_id": row["id"], "holder": client,
                                "last_renewed": self.clock.now()})
            quota_mod.enforce_and_queue(
                tx, self._quota_ancestors(resolved,
                                          upto=len(resolved.components) - 1),
                ns_delta=1, ds_delta=0, nn_id=self.nn_id)
            self._touch_parent(tx, parent_row)
            self.hint_cache.put(parent_row["id"], name, row["id"],
                                row["part_key"], False, False)
            return self._status(path, row)

        try:
            hint, plan = self.resolver.tx_hint(path)
            return self._fs_op("create", fn, hint=hint)
        except FileNotFoundError_:
            if not create_parents:
                raise
            components = split_path(path)
            if len(components) > 1:
                self.mkdirs(join_path(components[:-1]), owner=owner,
                            group=group)
            hint, plan = self.resolver.tx_hint(path)
            return self._fs_op("create", fn, hint=hint)

    # ------------------------------------------------------------------ reads

    def get_file_info(self, path: str) -> Optional[FileStatus]:
        """``stat``: shared lock on the last component only."""

        def fn(tx: DALTransaction) -> Optional[FileStatus]:
            resolved = self.resolver.resolve(tx, path,  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read)
                                             lock_last=LockMode.SHARED,
                                             last_access=True, plan=plan)
            row = resolved.last
            return self._status(path, row) if row is not None else None

        hint, plan = self.resolver.tx_hint(path)
        return self._fs_op("stat", fn, hint=hint)

    def exists(self, path: str) -> bool:
        return self.get_file_info(path) is not None

    def get_block_locations(self, path: str) -> LocatedBlocks:
        """The HDFS read path: file blocks plus replica locations."""

        def fn(tx: DALTransaction) -> LocatedBlocks:
            resolved = self.resolver.resolve(  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read carrying the file's scans and the commit)
                tx, path, lock_last=LockMode.SHARED, last_access=True,
                scans_for=_block_replica_scans, plan=plan)
            row = self._require(resolved)
            if row["is_dir"]:
                raise IsDirectoryError_(path)
            file_blocks, replicas = resolved.scanned
            by_block: dict[int, list[int]] = {}
            for replica in replicas:
                by_block.setdefault(replica["block_id"], []).append(
                    replica["dn_id"])
            located = tuple(
                BlockLocation(
                    block_id=b["block_id"], index=b["idx"], size=b["size"],
                    gen_stamp=b["gen_stamp"], state=b["state"],
                    datanodes=tuple(sorted(by_block.get(b["block_id"], []))))
                for b in sorted(file_blocks, key=lambda b: b["idx"])
                if b["idx"] >= 0  # negative indexes are EC parity stripes
            )
            return LocatedBlocks(path=path, file_size=row["size"],
                                 blocks=located,
                                 under_construction=bool(
                                     row["under_construction"]))

        hint, plan = self.resolver.tx_hint(path, file_rows=True)
        return self._fs_op("read", fn, hint=hint)

    def list_status(self, path: str) -> DirectoryListing:
        """Directory listing; shared lock on the directory (§5.2.1)."""

        def fn(tx: DALTransaction) -> DirectoryListing:
            resolved = self.resolver.resolve(  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read carrying the children scan and the commit)
                tx, path, lock_last=LockMode.SHARED, last_access=True,
                scans_for=_listing_scans, plan=plan)
            row = self._require(resolved)
            if not row["is_dir"]:
                return DirectoryListing(path=path,
                                        entries=[self._status(path, row)])
            if resolved.scanned is not None:
                # pruned to the shard the children share; as in
                # _list_children, the predicate keeps only the children
                children = [r for r in resolved.scanned[0]
                            if r["parent_id"] == row["id"]]
            else:
                # rt: offpath(reason=hash-partitioned directory: an all-shard scan no hint can prune)
                children = self._list_children(tx, row)
            base = path.rstrip("/")
            listing = DirectoryListing(path=path)
            for child in sorted(children, key=lambda r: r["name"]):
                listing.entries.append(
                    self._status(f"{base}/{child['name']}", child))
            return listing

        hint, plan = self.resolver.tx_hint(path)
        return self._fs_op("ls", fn, hint=hint)

    def content_summary(self, path: str) -> ContentSummary:
        """Recursive usage of a directory (read-committed traversal)."""

        def fn(tx: DALTransaction) -> ContentSummary:
            resolved = self.resolver.resolve(tx, path,  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read)
                                             lock_last=LockMode.SHARED,
                                             plan=plan)
            row = self._require(resolved)
            if not row["is_dir"]:
                return ContentSummary(path=path, file_count=1,
                                      directory_count=0, length=row["size"])
            files = dirs = length = 0
            stack = [row]
            # rt: per(dir)
            while stack:
                current = stack.pop()
                for child in self._list_children(tx, current):
                    if child["is_dir"]:
                        dirs += 1
                        stack.append(child)
                    else:
                        files += 1
                        length += child["size"]
            quota_row = tx.read("quotas", (row["id"],))
            return ContentSummary(
                path=path, file_count=files, directory_count=dirs,
                length=length,
                ns_quota=quota_row["ns_quota"] if quota_row else None,
                ds_quota=quota_row["ds_quota"] if quota_row else None)

        hint, plan = self.resolver.tx_hint(path)
        return self._fs_op("content_summary", fn, hint=hint)

    # ------------------------------------------------------------------ blocks

    def add_block(self, path: str, client: str) -> BlockLocation:
        """Allocate the next block of a file under construction."""

        def fn(tx: DALTransaction) -> BlockLocation:
            resolved = self.resolver.resolve(  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read carrying the blocks scan)
                tx, path, lock_last=LockMode.EXCLUSIVE,
                scans_for=_block_scans, plan=plan)
            row = self._require(resolved)
            self._check_lease(row, client)
            inode_id = row["id"]
            (file_blocks,) = resolved.scanned
            for block in sorted(file_blocks, key=lambda b: b["block_id"]):
                if block["state"] == blk.BLOCK_STATE_UNDER_CONSTRUCTION:
                    blk.complete_block(tx, inode_id, block["block_id"])
            targets = self._choose_datanodes(row["replication"])
            block_id = self.block_alloc.next()
            fs_schema.flag_sub_tables(tx, row, fs_schema.SUB_BLOCKS)
            block = blk.allocate_block(
                tx, inode_id, block_id, index=len(file_blocks),
                gen_stamp=self.gen_stamp_alloc.next(), target_dns=targets)
            quota_mod.enforce_and_queue(
                tx, self._quota_ancestors(resolved,
                                          upto=len(resolved.components) - 1),
                ns_delta=0,
                ds_delta=self.config.block_size * row["replication"],
                nn_id=self.nn_id)
            return BlockLocation(block_id=block_id, index=len(file_blocks),
                                 size=0, gen_stamp=block["gen_stamp"],
                                 state=block["state"],
                                 datanodes=tuple(targets))

        hint, plan = self.resolver.tx_hint(path, file_rows=True)
        return self._fs_op("add_block", fn, hint=hint)

    def block_received(self, dn_id: int, block_id: int, size: int) -> None:
        """A datanode finalized a replica (blockReceived RPC)."""

        def fn(tx: DALTransaction) -> None:
            inode_id = blk.lookup_block_inode(tx, block_id)
            if inode_id is None:
                return  # file deleted while the pipeline was writing
            row = self._lock_inode_by_id(tx, inode_id)
            if row is None:
                return
            blk.finalize_replica(tx, inode_id, block_id, dn_id, size)

        self._fs_op("block_received", fn,
                    hint=("block_lookup", {"block_id": block_id}))

    def complete(self, path: str, client: str) -> bool:
        """Close a file under construction."""

        def fn(tx: DALTransaction) -> bool:
            resolved = self.resolver.resolve(  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read carrying the file's scans)
                tx, path, lock_last=LockMode.EXCLUSIVE,
                scans_for=_block_replica_scans, plan=plan)
            row = self._require(resolved)
            self._check_lease(row, client)
            inode_id = row["id"]
            file_blocks, replicas = resolved.scanned
            finalized = {r["block_id"] for r in replicas}
            size = 0
            for block in sorted(file_blocks, key=lambda b: b["block_id"]):
                if block["block_id"] not in finalized:
                    return False  # pipeline not finished; client retries
                if block["state"] == blk.BLOCK_STATE_UNDER_CONSTRUCTION:
                    blk.complete_block(tx, inode_id, block["block_id"])
                size += block["size"]
                blk.check_replication(tx, inode_id, block["block_id"],
                                      row["replication"])
            pk = (row["part_key"], row["parent_id"], row["name"])
            tx.update("inodes", pk, {"under_construction": False,
                                     "client": None, "size": size,
                                     "mtime": self.clock.now()})
            tx.delete("leases", (inode_id,), must_exist=False)
            return True

        hint, plan = self.resolver.tx_hint(path, file_rows=True)
        return self._fs_op("complete", fn, hint=hint)

    def append_file(self, path: str, client: str) -> Optional[BlockLocation]:
        """Reopen a file for append; returns the last partial block."""

        def fn(tx: DALTransaction) -> Optional[BlockLocation]:
            resolved = self.resolver.resolve(  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read carrying the file's scans)
                tx, path, lock_last=LockMode.EXCLUSIVE,
                scans_for=_block_replica_scans, plan=plan)
            row = self._require(resolved)
            if row["is_dir"]:
                raise IsDirectoryError_(path)
            if row["under_construction"]:
                raise LeaseConflictError(
                    f"{path} already under construction by {row['client']}")
            pk = (row["part_key"], row["parent_id"], row["name"])
            tx.update("inodes", pk, {"under_construction": True,
                                     "client": client})
            tx.write("leases", {"inode_id": row["id"], "holder": client,
                                "last_renewed": self.clock.now()})
            file_blocks, replicas = resolved.scanned
            if not file_blocks:
                return None
            last = max(file_blocks, key=lambda b: b["idx"])
            return BlockLocation(
                block_id=last["block_id"], index=last["idx"],
                size=last["size"], gen_stamp=last["gen_stamp"],
                state=last["state"],
                datanodes=tuple(sorted(
                    r["dn_id"] for r in replicas
                    if r["block_id"] == last["block_id"])))

        hint, plan = self.resolver.tx_hint(path, file_rows=True)
        return self._fs_op("append", fn, hint=hint)

    # ------------------------------------------------------------------ delete

    def delete(self, path: str, recursive: bool = False) -> bool:
        """Delete a file or directory.

        Files and empty directories are one transaction. Non-empty
        directories require ``recursive=True`` and run as a subtree
        operation (§6).
        """

        def fn(tx: DALTransaction):
            # rt: cost(1, reason=warm delete resolve: parent and target locked in one hinted batched read carrying the target's sub-row scans)
            resolved = self.resolver.resolve(
                tx, path, lock_last=LockMode.EXCLUSIVE,
                lock_parent=LockMode.EXCLUSIVE,
                scans_for=_own_sub_row_scans, plan=plan)
            if not resolved.components:
                raise PermissionDeniedError("cannot delete the root")
            row = resolved.last
            if row is None:
                return False
            if row["is_dir"] and self._has_children(tx, row):
                if not recursive:
                    raise DirectoryNotEmptyError(path)
                return "subtree"  # escalate outside this transaction
            self._delete_file_rows(tx, resolved, row)
            self._touch_parent(tx, resolved.parent)
            return True

        hint, plan = self.resolver.tx_hint(path)
        result = self._fs_op("delete", fn, hint=hint)
        if result == "subtree":
            return self.delete_subtree(path)
        return result

    def _scan_sub_rows(self, tx: DALTransaction,
                       inodes: Sequence[tuple[int, int]],
                       ) -> dict[int, dict[str, list[dict]]]:
        """Everything hanging off each ``(inode_id, sub_tables bits)``,
        as ``{inode_id: {table: rows}}`` — one batched scan for all of
        them, none when no bit asks for one. The rows live on their
        inode's shard so that they can be fetched together (§4.2), and
        the inode X lock the caller holds covers them (§5.2.1), so
        read-committed suffices."""
        scans = _sub_row_scans(inodes)
        return _group_sub_rows(inodes, tx.ppis_batch(scans) if scans else [])

    def _delete_sub_rows(self, tx: DALTransaction, inode_id: int, bits: int,
                         rows: dict[str, list[dict]]) -> None:
        """Delete what :meth:`_scan_sub_rows` found for one inode with
        these ``sub_tables`` bits, and the point rows they allow. A
        file's ``leases`` row has no bit: the caller deletes it."""
        if bits & fs_schema.SUB_BLOCKS:
            blk.remove_file_blocks(tx, inode_id, rows)
        if bits & fs_schema.SUB_QUOTA:
            tx.delete("quotas", (inode_id,), must_exist=False)
        if bits & fs_schema.SUB_XATTRS:
            for name in sorted(xattr["name"] for xattr in rows["xattrs"]):
                tx.delete("xattrs", (inode_id, name), must_exist=False)
        if bits & fs_schema.SUB_EC:
            tx.delete("ec_files", (inode_id,), must_exist=False)
            for group_idx in sorted(g["group_idx"]
                                    for g in rows["ec_groups"]):
                tx.delete("ec_groups", (inode_id, group_idx),
                          must_exist=False)

    def _delete_file_rows(self, tx: DALTransaction, resolved: ResolvedPath,
                          row: dict) -> None:
        """Remove one inode (file or empty dir) and its dependent rows,
        found by the resolve's ``_own_sub_row_scans`` — keyed from the
        hint before the row was read, so by :func:`_hint_bits`."""
        inode_id = row["id"]
        bits = _hint_bits(row["is_dir"])
        self._delete_sub_rows(
            tx, inode_id, bits,
            _group_sub_rows([(inode_id, bits)], resolved.scanned)[inode_id])
        if not row["is_dir"]:
            tx.delete("leases", (inode_id,), must_exist=False)
        tx.delete("inodes", (row["part_key"], row["parent_id"], row["name"]))
        quota_mod.enforce_and_queue(
            tx, self._quota_ancestors(resolved,
                                      upto=len(resolved.components) - 1),
            ns_delta=-1,
            ds_delta=-(row["size"] * max(1, row["replication"])),
            nn_id=self.nn_id)
        self.hint_cache.invalidate(row["parent_id"], row["name"])

    # ------------------------------------------------------------------ rename

    def rename(self, src: str, dst: str) -> bool:
        """Move/rename.

        Files and empty directories move in one transaction that locks the
        involved rows in path (total) order. Non-empty directories use the
        subtree-operations protocol (§6).
        """
        src_components = split_path(src)
        dst_components = split_path(dst)
        if not src_components:
            raise PermissionDeniedError("cannot move the root")
        if not dst_components:
            raise FileAlreadyExistsError("/")
        if dst_components[: len(src_components)] == src_components:
            raise InvalidPathError(f"cannot move {src} under itself")

        def fn(tx: DALTransaction):
            return self._rename_in_tx(tx, src, dst, subtree_root_id=None,
                                      plan=plan)

        hint, plan = self.resolver.tx_hint(src)
        result = self._fs_op("rename", fn, hint=hint)
        if result == "subtree":
            return self.move_subtree(src, dst)
        return result

    def _rename_in_tx(self, tx: DALTransaction, src: str, dst: str,
                      subtree_root_id: Optional[int],
                      plan: Optional[Handoff] = None):
        """Shared by plain rename and subtree-move phase 3.

        ``subtree_root_id`` is set when called under a subtree lock: the
        source row is then expected to carry this namenode's lock flag,
        which travels away with the move (the flag is cleared on the
        re-inserted row). ``plan`` is the source's, from
        :meth:`~repro.hopsfs.tx.PathResolver.tx_hint`.
        """
        src_components = split_path(src)
        dst_components = split_path(dst)
        check_flags = subtree_root_id is None
        # Resolve both paths read-committed first (no locks): that names
        # the keys. What the move relies on is read by the lock batch.
        # rt: cost(1, reason=warm RC resolve of the existing source: one batched read)
        src_resolved = self.resolver.resolve(
            tx, src, check_subtree_locks=check_flags, plan=plan)
        # rt: cost(1, reason=warm RC resolve of the missing destination: one batched read, the last key computed)
        dst_resolved = self.resolver.resolve(
            tx, dst, check_subtree_locks=check_flags)
        if src_resolved.last is None:
            raise FileNotFoundError_(src)
        dst_parent = dst_resolved.parent
        if dst_parent is None:
            raise FileNotFoundError_(f"parent of {dst} does not exist")
        if not dst_parent["is_dir"]:
            raise ParentNotDirectoryError(f"parent of {dst}")
        dst_pk = (self.resolver.child_part_key(dst_parent["children_random"],
                                               dst_parent["id"],
                                               dst_components[-1]),
                  dst_parent["id"], dst_components[-1])
        exclusive = {
            self._row_pk(src_resolved.parent): tuple(src_components[:-1]),
            self._row_pk(src_resolved.last): tuple(src_components),
            self._row_pk(dst_parent): tuple(dst_components[:-1]),
            dst_pk: tuple(dst_components),
        }
        # One locked batched read over EVERY component of both paths in
        # component-tuple order — ancestor before descendant, the total
        # order: X on the two parents, the source and the destination
        # key, read-committed above them. The engine locks first and
        # reads after, so the ancestors come back as of the moment the
        # locks landed: a subtree operation that got past the locked rows
        # before us flagged (or removed) one of them before that moment.
        above = ((src_resolved, src_resolved.rows),
                 (dst_resolved, dst_resolved.rows[:len(dst_components) - 1]))
        paths = dict(exclusive)
        for resolved, rows in above:
            for depth, row in enumerate(rows, start=1):
                paths[self._row_pk(row)] = tuple(resolved.components[:depth])
        lock_plan = sorted(paths.items(), key=lambda item: item[1])
        plan_pks = [pk for pk, _order_key in lock_plan]
        with span("lock", rows=len(plan_pks)):
            plan_rows = tx.read_batch(
                "inodes", plan_pks,
                locks=[LockMode.EXCLUSIVE if pk in exclusive
                       else LockMode.READ_COMMITTED for pk in plan_pks])
        fresh: dict[tuple, Optional[dict]] = dict(zip(plan_pks, plan_rows))
        for resolved, rows in above:
            for i, row in enumerate(rows):
                now = fresh[self._row_pk(row)]
                if now is None or now["id"] != row["id"]:
                    # moved or deleted under us; the client may retry
                    raise FileNotFoundError_(resolved.path)
                resolved.rows[i] = now
            if check_flags:
                self.resolver.check_subtree_locks(resolved)
        src_row = src_resolved.last
        dst_parent = dst_resolved.parent
        if subtree_root_id is None and src_row["is_dir"]:
            # rt: offpath(reason=directory rename probes for children; the pinned warm budget is the file rename)
            if self._has_children(tx, src_row):
                return "subtree"
        if fresh[dst_pk] is not None:
            raise FileAlreadyExistsError(dst)
        # move = delete + insert (the primary key changes, §5.1.1)
        moved = dict(src_row)
        moved["parent_id"] = dst_parent["id"]
        moved["name"] = dst_components[-1]
        moved["part_key"] = dst_pk[0]
        moved["depth"] = len(dst_components)
        moved["mtime"] = self.clock.now()
        if subtree_root_id is not None:
            moved["subtree_lock_owner"] = fs_schema.NO_LOCK
            moved["subtree_op"] = None
        tx.delete("inodes", self._row_pk(src_row))
        tx.insert("inodes", moved)
        self._touch_parent(tx, src_resolved.parent)
        if dst_parent["id"] != src_resolved.parent["id"]:
            self._touch_parent(tx, dst_parent)
        # quota deltas move between the two ancestor chains
        ns = 1
        ds = src_row["size"] * max(1, src_row["replication"])
        quota_mod.enforce_and_queue(
            tx, self._quota_ancestors(dst_resolved,
                                      upto=len(dst_components) - 1),
            ns_delta=ns, ds_delta=ds, nn_id=self.nn_id)
        quota_mod.enforce_and_queue(
            tx, self._quota_ancestors(src_resolved,
                                      upto=len(src_components) - 1),
            ns_delta=-ns, ds_delta=-ds, nn_id=self.nn_id)
        self.hint_cache.invalidate(src_row["parent_id"], src_row["name"])
        self.hint_cache.put(moved["parent_id"], moved["name"], moved["id"],
                            moved["part_key"], moved["is_dir"],
                            moved["children_random"])
        return True

    def _row_pk(self, row: dict) -> tuple:
        return (row["part_key"], row["parent_id"], row["name"])

    # ------------------------------------------------------------------ attrs

    def set_permission(self, path: str, perm: int) -> None:
        """chmod. Non-empty directories escalate to a subtree operation."""

        def fn(tx: DALTransaction):
            resolved = self.resolver.resolve(tx, path,  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read)
                                             lock_last=LockMode.EXCLUSIVE,
                                             plan=plan)
            row = self._require(resolved)
            if row["is_dir"] and self._has_children(tx, row):
                return "subtree"
            tx.update("inodes", self._row_pk(row), {"perm": perm})
            return None

        hint, plan = self.resolver.tx_hint(path)
        result = self._fs_op("chmod", fn, hint=hint)
        if result == "subtree":
            self.chmod_subtree(path, perm)

    def set_owner(self, path: str, owner: str, group: str) -> None:
        """chown. Non-empty directories escalate to a subtree operation."""

        def fn(tx: DALTransaction):
            resolved = self.resolver.resolve(tx, path,  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read)
                                             lock_last=LockMode.EXCLUSIVE,
                                             plan=plan)
            row = self._require(resolved)
            if row["is_dir"] and self._has_children(tx, row):
                return "subtree"
            tx.update("inodes", self._row_pk(row),
                      {"owner": owner, "group": group})
            return None

        hint, plan = self.resolver.tx_hint(path)
        result = self._fs_op("chown", fn, hint=hint)
        if result == "subtree":
            self.chown_subtree(path, owner, group)

    def set_replication(self, path: str, replication: int) -> bool:
        """Change a file's target replication; reconciles URB/ER state."""
        if replication < 1:
            raise InvalidPathError("replication must be >= 1")

        def fn(tx: DALTransaction) -> bool:
            resolved = self.resolver.resolve(  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read carrying the blocks scan)
                tx, path, lock_last=LockMode.EXCLUSIVE,
                scans_for=_block_scans, plan=plan)
            row = self._require(resolved)
            if row["is_dir"]:
                raise IsDirectoryError_(path)
            old = row["replication"]
            tx.update("inodes", self._row_pk(row),
                      {"replication": replication})
            (file_blocks,) = resolved.scanned
            for block in sorted(file_blocks, key=lambda b: b["block_id"]):
                blk.check_replication(tx, row["id"], block["block_id"],
                                      replication)
            quota_mod.enforce_and_queue(
                tx, self._quota_ancestors(resolved,
                                          upto=len(resolved.components) - 1),
                ns_delta=0, ds_delta=row["size"] * (replication - old),
                nn_id=self.nn_id)
            return True

        hint, plan = self.resolver.tx_hint(path)
        return self._fs_op("set_replication", fn, hint=hint)

    # ------------------------------------------------------------------ leases

    def _check_lease(self, row: dict, client: str) -> None:
        if row["is_dir"]:
            raise IsDirectoryError_(row["name"])
        if not row["under_construction"]:
            raise LeaseConflictError(f"{row['name']} is not under construction")
        if row["client"] != client:
            raise LeaseConflictError(
                f"{row['name']} is leased by {row['client']!r}, not {client!r}")

    def renew_lease(self, client: str) -> int:
        """Renew every lease held by a client; returns how many."""

        def fn(tx: DALTransaction) -> int:
            # hfs: allow(HFS101, reason=leases are keyed by inode; the by-holder lookup has no partition key to prune on)
            rows = sorted(tx.index_scan("leases", "by_holder", (client,)),
                          key=lambda r: r["inode_id"])
            now = self.clock.now()
            for row in rows:
                tx.update("leases", (row["inode_id"],), {"last_renewed": now})
            return len(rows)

        return self._fs_op("renew_lease", fn)

    def recover_expired_leases(self) -> int:
        """Leader housekeeping: close files whose lease expired."""
        deadline = self.clock.now() - LEASE_TIMEOUT

        def find(tx: DALTransaction) -> list[int]:
            # hfs: allow(HFS101, reason=leader-only housekeeping sweep; runs off the client hot path)
            rows = tx.full_scan("leases",
                                predicate=lambda r: r["last_renewed"] < deadline)
            return [row["inode_id"] for row in rows]

        expired = self._fs_op("lease_scan", find)
        recovered = 0
        for inode_id in expired:
            def recover(tx: DALTransaction, inode_id=inode_id) -> bool:
                row = self._lock_inode_by_id(tx, inode_id)
                if row is None or not row["under_construction"]:
                    tx.delete("leases", (inode_id,), must_exist=False)
                    return False
                file_blocks = tx.ppis("blocks", {"inode_id": inode_id})
                size = sum(b["size"] for b in file_blocks)
                for block in sorted(file_blocks, key=lambda b: b["block_id"]):
                    if block["state"] == blk.BLOCK_STATE_UNDER_CONSTRUCTION:
                        blk.complete_block(tx, inode_id, block["block_id"])
                tx.update("inodes", self._row_pk(row),
                          {"under_construction": False, "client": None,
                           "size": size})
                tx.delete("leases", (inode_id,), must_exist=False)
                return True

            if self._fs_op("lease_recovery", recover):
                recovered += 1
        return recovered

    # ------------------------------------------------------------------ xattrs

    def set_xattr(self, path: str, name: str, value: str) -> None:
        """Set an extended attribute (§9: safely extended metadata).

        The xattr row carries the inode's foreign key, so its integrity
        follows from the inode's row lock (hierarchical locking).
        """
        if not name:
            raise InvalidPathError("xattr name must be non-empty")

        def fn(tx: DALTransaction) -> None:
            resolved = self.resolver.resolve(tx, path,  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read)
                                             lock_last=LockMode.EXCLUSIVE,
                                             plan=plan)
            row = self._require(resolved)
            if resolved.components:  # the cached root is never deleted
                fs_schema.flag_sub_tables(tx, row, fs_schema.SUB_XATTRS)
            tx.write("xattrs", {"inode_id": row["id"], "name": name,
                                "value": value})

        hint, plan = self.resolver.tx_hint(path, file_rows=True)
        self._fs_op("set_xattr", fn, hint=hint)

    def get_xattrs(self, path: str) -> dict:
        """All extended attributes of a path (one partition-pruned scan)."""

        def fn(tx: DALTransaction) -> dict:
            resolved = self.resolver.resolve(  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read carrying the xattrs scan and the commit)
                tx, path, lock_last=LockMode.SHARED, last_access=True,
                scans_for=_xattr_scans, plan=plan)
            self._require(resolved)
            (xattrs,) = resolved.scanned
            return {xattr["name"]: xattr["value"] for xattr in xattrs}

        hint, plan = self.resolver.tx_hint(path, file_rows=True)
        return self._fs_op("get_xattrs", fn, hint=hint)

    def remove_xattr(self, path: str, name: str) -> bool:
        def fn(tx: DALTransaction) -> bool:
            resolved = self.resolver.resolve(  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read carrying the xattrs scan)
                tx, path, lock_last=LockMode.EXCLUSIVE,
                scans_for=_xattr_scans, plan=plan)
            row = self._require(resolved)
            (xattrs,) = resolved.scanned
            if not any(xattr["name"] == name for xattr in xattrs):
                return False
            tx.delete("xattrs", (row["id"], name))
            return True

        hint, plan = self.resolver.tx_hint(path, file_rows=True)
        return self._fs_op("remove_xattr", fn, hint=hint)

    # ------------------------------------------------------------------ misc

    def report_bad_block(self, block_id: int, dn_id: int) -> None:
        """Client/datanode reports a corrupt replica."""

        def fn(tx: DALTransaction) -> None:
            inode_id = blk.lookup_block_inode(tx, block_id)
            if inode_id is None:
                return
            row = self._lock_inode_by_id(tx, inode_id)
            if row is None:
                return
            blk.mark_corrupt(tx, inode_id, block_id, dn_id,
                             row["replication"])

        self._fs_op("report_bad_block", fn,
                    hint=("block_lookup", {"block_id": block_id}))

    def _choose_datanodes(self, replication: int) -> list[int]:
        candidates = self.alive_datanode_ids(include_decommissioning=False)
        if not candidates:
            candidates = self.alive_datanode_ids()  # better than failing
        if not candidates:
            return []
        count = min(replication, len(candidates))
        return self._rng.sample(candidates, count)
