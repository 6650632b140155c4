"""The in-heap HDFS namesystem (paper §2.1).

The whole namespace lives on the namenode heap as an inode tree guarded
by ONE global readers-writer lock: read operations share it, every
mutation takes it exclusively — this is the serialization bottleneck the
paper removes. Mutations additionally emit edit-log entries that carry
every generated value (ids, timestamps) so the standby can replay them
deterministically.

Block *locations* are deliberately not part of the persistent state:
HDFS rebuilds them from block reports after a restart/failover (§7.7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundError_,
    InvalidPathError,
    IsDirectoryError_,
    LeaseConflictError,
    NotDirectoryError,
    ParentNotDirectoryError,
    PermissionDeniedError,
    QuotaExceededError,
)
from repro.hdfs.editlog import EditLogEntry
from repro.hopsfs.paths import join_path, split_path
from repro.hopsfs.types import (
    BlockLocation,
    ContentSummary,
    DirectoryListing,
    FileStatus,
    LocatedBlocks,
)
from repro.util.clock import Clock, SystemClock
from repro.util.rwlock import ReadWriteLock


@dataclass
class INode:
    id: int
    name: str
    is_dir: bool
    perm: int
    owner: str
    group: str
    mtime: float
    atime: float
    replication: int = 0
    size: int = 0
    under_construction: bool = False
    client: Optional[str] = None
    children: dict[str, "INode"] = field(default_factory=dict)
    blocks: list[int] = field(default_factory=list)
    ns_quota: Optional[int] = None
    ds_quota: Optional[int] = None


@dataclass
class BlockMeta:
    block_id: int
    inode_id: int
    index: int
    size: int
    gen_stamp: int
    state: str  # "under_construction" | "complete"


class FSNamesystem:
    """The namespace + block map, all in memory, one global lock."""

    #: replication factor of a file created without one
    DEFAULT_REPLICATION = 3

    def __init__(self, clock: Optional[Clock] = None,
                 edit_sink: Optional[Callable[[str, tuple], None]] = None) -> None:
        self.clock = clock or SystemClock()
        self.lock = ReadWriteLock()
        self.root = INode(id=1, name="", is_dir=True, perm=0o755,
                          owner="hdfs", group="hdfs", mtime=0.0, atime=0.0)
        self._by_id: dict[int, INode] = {1: self.root}
        self.blocks: dict[int, BlockMeta] = {}
        #: block id -> set of datanode ids; NOT persisted (rebuilt from reports)
        self.locations: dict[int, set[int]] = {}
        self._inode_ids = itertools.count(2)
        self._block_ids = itertools.count(1)
        self._gen_stamps = itertools.count(1000)
        #: callable(op, args) invoked for every mutation (the edit log);
        #: None while replaying edits on a standby.
        self._edit_sink = edit_sink
        self.ops_processed = 0

    # -- tree helpers --------------------------------------------------------------

    def _lookup(self, path: str) -> Optional[INode]:
        node = self.root
        for name in split_path(path):
            if not node.is_dir:
                raise ParentNotDirectoryError(path)
            node = node.children.get(name)
            if node is None:
                return None
        return node

    def _lookup_parent(self, path: str) -> tuple[Optional[INode], str]:
        components = split_path(path)
        if not components:
            raise InvalidPathError("operation on root")
        node = self.root
        for name in components[:-1]:
            child = node.children.get(name)
            if child is None:
                return None, components[-1]
            if not child.is_dir:
                raise ParentNotDirectoryError(join_path(components[:-1]))
            node = child
        return node, components[-1]

    def _status(self, path: str, node: INode) -> FileStatus:
        return FileStatus(path=path, inode_id=node.id, is_dir=node.is_dir,
                          perm=node.perm, owner=node.owner, group=node.group,
                          mtime=node.mtime, atime=node.atime, size=node.size,
                          replication=node.replication,
                          under_construction=node.under_construction)

    def _log(self, op: str, args: tuple) -> None:
        if self._edit_sink is not None:
            self._edit_sink(op, args)

    def _check_quota(self, path: str, ns_delta: int, ds_delta: int) -> None:
        """Enforce quotas along the path (usage computed on demand)."""
        node = self.root
        components = split_path(path)
        for i in range(len(components)):
            if node.ns_quota is not None or node.ds_quota is not None:
                ns_used, ds_used = self._usage(node)
                if (node.ns_quota is not None and ns_delta > 0
                        and ns_used + ns_delta > node.ns_quota):
                    raise QuotaExceededError(f"ns quota at {components[:i]}")
                if (node.ds_quota is not None and ds_delta > 0
                        and ds_used + ds_delta > node.ds_quota):
                    raise QuotaExceededError(f"ds quota at {components[:i]}")
            node = node.children.get(components[i])
            if node is None:
                return

    def _usage(self, node: INode) -> tuple[int, int]:
        ns = 0
        ds = 0
        stack = [node]
        while stack:
            current = stack.pop()
            ns += 1
            if current.is_dir:
                stack.extend(current.children.values())
            else:
                ds += current.size * max(1, current.replication)
        return ns, ds

    # -- mutations (write lock) -------------------------------------------------------

    def mkdirs(self, path: str, perm: int = 0o755, owner: str = "hdfs",
               group: str = "hdfs", _ids: Optional[list[int]] = None,
               _now: Optional[float] = None) -> bool:
        components = split_path(path)
        with self.lock.write_locked():
            now = _now if _now is not None else self.clock.now()
            self._check_quota(path, ns_delta=len(components), ds_delta=0)
            node = self.root
            created_ids: list[int] = []
            idx = 0
            for name in components:
                child = node.children.get(name)
                if child is None:
                    if _ids is not None:
                        new_id = _ids[idx]
                    else:
                        new_id = next(self._inode_ids)
                    idx += 1
                    child = INode(id=new_id, name=name, is_dir=True,
                                  perm=perm, owner=owner, group=group,
                                  mtime=now, atime=now)
                    node.children[name] = child
                    self._by_id[new_id] = child
                    node.mtime = now
                    created_ids.append(new_id)
                elif not child.is_dir:
                    raise FileAlreadyExistsError(f"{path} exists and is a file")
                node = child
            self.ops_processed += 1
        if created_ids and _ids is None:
            self._log("mkdirs", (path, perm, owner, group, created_ids, now))
        return True

    def create(self, path: str, perm: int = 0o644, owner: str = "hdfs",
               group: str = "hdfs", client: str = "client",
               replication: Optional[int] = None, overwrite: bool = False,
               _id: Optional[int] = None,
               _now: Optional[float] = None) -> FileStatus:
        repl = replication if replication is not None else self.DEFAULT_REPLICATION
        with self.lock.write_locked():
            now = _now if _now is not None else self.clock.now()
            parent, name = self._lookup_parent(path)
            if parent is None:
                raise FileNotFoundError_(f"parent of {path} does not exist")
            existing = parent.children.get(name)
            if existing is not None:
                if existing.is_dir:
                    raise FileAlreadyExistsError(f"{path} is a directory")
                if not overwrite:
                    raise FileAlreadyExistsError(path)
                self._remove_file(parent, existing)
            self._check_quota(path, ns_delta=1, ds_delta=0)
            new_id = _id if _id is not None else next(self._inode_ids)
            node = INode(id=new_id, name=name, is_dir=False, perm=perm,
                         owner=owner, group=group, mtime=now, atime=now,
                         replication=repl, under_construction=True,
                         client=client)
            parent.children[name] = node
            self._by_id[new_id] = node
            parent.mtime = now
            status = self._status(path, node)
            self.ops_processed += 1
        if _id is None:
            self._log("create", (path, perm, owner, group, client, repl,
                                 overwrite, new_id, now))
        return status

    def add_block(self, path: str, client: str, targets: list[int],
                  _block_id: Optional[int] = None,
                  _gen_stamp: Optional[int] = None) -> BlockLocation:
        with self.lock.write_locked():
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            self._check_lease(node, client)
            for block_id in node.blocks:
                self.blocks[block_id].state = "complete"
            block_id = _block_id if _block_id is not None else next(self._block_ids)
            gen_stamp = _gen_stamp if _gen_stamp is not None else next(self._gen_stamps)
            meta = BlockMeta(block_id=block_id, inode_id=node.id,
                             index=len(node.blocks), size=0,
                             gen_stamp=gen_stamp, state="under_construction")
            self.blocks[block_id] = meta
            self.locations.setdefault(block_id, set())
            node.blocks.append(block_id)
            self.ops_processed += 1
        if _block_id is None:
            self._log("add_block", (path, client, list(targets), block_id,
                                    gen_stamp))
        return BlockLocation(block_id=block_id, index=meta.index, size=0,
                             gen_stamp=gen_stamp, state=meta.state,
                             datanodes=tuple(targets))

    def block_received(self, dn_id: int, block_id: int, size: int) -> None:
        with self.lock.write_locked():
            # Record the location even if we have not seen the block yet: a
            # standby may receive blockReceived before tailing the
            # corresponding add_block edit. Truly orphaned entries are
            # reconciled by block reports.
            self.locations.setdefault(block_id, set()).add(dn_id)
            meta = self.blocks.get(block_id)
            if meta is not None and size > meta.size:
                meta.size = size
            self.ops_processed += 1
        # location changes are not logged: HDFS rebuilds them from reports

    def complete(self, path: str, client: str,
                 _now: Optional[float] = None,
                 _block_sizes: Optional[list[tuple[int, int]]] = None) -> bool:
        with self.lock.write_locked():
            now = _now if _now is not None else self.clock.now()
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            self._check_lease(node, client)
            if _block_sizes is not None:
                # replay path: the edit carries the authoritative sizes
                for block_id, size in _block_sizes:
                    meta = self.blocks.get(block_id)
                    if meta is not None:
                        meta.size = size
            size = 0
            block_sizes: list[tuple[int, int]] = []
            for block_id in node.blocks:
                meta = self.blocks[block_id]
                if (self._edit_sink is not None
                        and not self.locations.get(block_id)):
                    return False  # no replica finalized yet; client retries
                meta.state = "complete"
                size += meta.size
                block_sizes.append((block_id, meta.size))
            node.under_construction = False
            node.client = None
            node.size = size
            node.mtime = now
            self.ops_processed += 1
        if _block_sizes is None:
            self._log("complete", (path, client, now, block_sizes))
        return True

    def append_file(self, path: str, client: str) -> Optional[BlockLocation]:
        with self.lock.write_locked():
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            if node.is_dir:
                raise IsDirectoryError_(path)
            if node.under_construction:
                raise LeaseConflictError(f"{path} already under construction")
            node.under_construction = True
            node.client = client
            last = None
            if node.blocks:
                meta = self.blocks[node.blocks[-1]]
                last = BlockLocation(
                    block_id=meta.block_id, index=meta.index, size=meta.size,
                    gen_stamp=meta.gen_stamp, state=meta.state,
                    datanodes=tuple(sorted(self.locations.get(
                        meta.block_id, set()))))
            self.ops_processed += 1
        self._log("append", (path, client))
        return last

    def delete(self, path: str, recursive: bool = False,
               _now: Optional[float] = None) -> bool:
        """Delete; large directories release and retake the lock between
        batches (HDFS batches deletes to avoid starving clients, §2.1)."""
        with self.lock.write_locked():
            now = _now if _now is not None else self.clock.now()
            parent, name = self._lookup_parent(path)
            if parent is None:
                return False
            node = parent.children.get(name)
            if node is None:
                return False
            if node.is_dir and node.children and not recursive:
                raise DirectoryNotEmptyError(path)
            # collect and remove; block deletion happens in later phases
            parent.children.pop(name)
            parent.mtime = now
            removed_blocks = self._collect_blocks(node)
            self.ops_processed += 1
        for block_id in removed_blocks:
            with self.lock.write_locked():
                self.blocks.pop(block_id, None)
                self.locations.pop(block_id, None)
        self._log("delete", (path, recursive, now))
        return True

    def rename(self, src: str, dst: str, _now: Optional[float] = None) -> bool:
        src_components = split_path(src)
        dst_components = split_path(dst)
        if not src_components:
            raise PermissionDeniedError("cannot move the root")
        if dst_components[: len(src_components)] == src_components:
            raise InvalidPathError(f"cannot move {src} under itself")
        with self.lock.write_locked():
            now = _now if _now is not None else self.clock.now()
            src_parent, src_name = self._lookup_parent(src)
            if src_parent is None or src_name not in src_parent.children:
                raise FileNotFoundError_(src)
            dst_parent, dst_name = self._lookup_parent(dst)
            if dst_parent is None:
                raise FileNotFoundError_(f"parent of {dst}")
            if not dst_parent.is_dir:
                raise ParentNotDirectoryError(f"parent of {dst}")
            if dst_name in dst_parent.children:
                raise FileAlreadyExistsError(dst)
            node = src_parent.children.pop(src_name)
            node.name = dst_name
            dst_parent.children[dst_name] = node
            src_parent.mtime = now
            dst_parent.mtime = now
            self.ops_processed += 1
        self._log("rename", (src, dst, now))
        return True

    def set_permission(self, path: str, perm: int) -> None:
        with self.lock.write_locked():
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            node.perm = perm
            self.ops_processed += 1
        self._log("chmod", (path, perm))

    def set_owner(self, path: str, owner: str, group: str) -> None:
        with self.lock.write_locked():
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            node.owner = owner
            node.group = group
            self.ops_processed += 1
        self._log("chown", (path, owner, group))

    def set_replication(self, path: str, replication: int) -> bool:
        with self.lock.write_locked():
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            if node.is_dir:
                raise IsDirectoryError_(path)
            node.replication = replication
            self.ops_processed += 1
        self._log("set_replication", (path, replication))
        return True

    def set_quota(self, path: str, ns_quota: Optional[int],
                  ds_quota: Optional[int]) -> None:
        with self.lock.write_locked():
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            if not node.is_dir:
                raise NotDirectoryError(path)
            node.ns_quota = ns_quota
            node.ds_quota = ds_quota
            self.ops_processed += 1
        self._log("set_quota", (path, ns_quota, ds_quota))

    # -- reads (read lock) ----------------------------------------------------------------

    def get_file_info(self, path: str) -> Optional[FileStatus]:
        with self.lock.read_locked():
            node = self._lookup(path)
            result = self._status(path, node) if node is not None else None
            self.ops_processed += 1
            return result

    def list_status(self, path: str) -> DirectoryListing:
        with self.lock.read_locked():
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            listing = DirectoryListing(path=path)
            if not node.is_dir:
                listing.entries.append(self._status(path, node))
            else:
                base = path.rstrip("/")
                for name in sorted(node.children):
                    listing.entries.append(
                        self._status(f"{base}/{name}", node.children[name]))
            self.ops_processed += 1
            return listing

    def get_block_locations(self, path: str) -> LocatedBlocks:
        with self.lock.read_locked():
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            if node.is_dir:
                raise IsDirectoryError_(path)
            located = []
            for block_id in node.blocks:
                meta = self.blocks[block_id]
                located.append(BlockLocation(
                    block_id=block_id, index=meta.index, size=meta.size,
                    gen_stamp=meta.gen_stamp, state=meta.state,
                    datanodes=tuple(sorted(self.locations.get(block_id,
                                                              set())))))
            self.ops_processed += 1
            return LocatedBlocks(path=path, file_size=node.size,
                                 blocks=tuple(located),
                                 under_construction=node.under_construction)

    def content_summary(self, path: str) -> ContentSummary:
        with self.lock.read_locked():
            node = self._lookup(path)
            if node is None:
                raise FileNotFoundError_(path)
            if not node.is_dir:
                return ContentSummary(path=path, file_count=1,
                                      directory_count=0, length=node.size)
            files = dirs = length = 0
            stack = list(node.children.values())
            while stack:
                current = stack.pop()
                if current.is_dir:
                    dirs += 1
                    stack.extend(current.children.values())
                else:
                    files += 1
                    length += current.size
            self.ops_processed += 1
            return ContentSummary(path=path, file_count=files,
                                  directory_count=dirs, length=length,
                                  ns_quota=node.ns_quota,
                                  ds_quota=node.ds_quota)

    # -- block reports -----------------------------------------------------------------------

    def process_block_report(self, dn_id: int,
                             report: list[tuple[int, int]]) -> dict:
        """Reconcile one datanode's report against the block map."""
        with self.lock.write_locked():
            reported = dict(report)
            added = removed = 0
            orphans = []
            for block_id, size in reported.items():
                meta = self.blocks.get(block_id)
                if meta is None:
                    orphans.append(block_id)
                    continue
                holders = self.locations.setdefault(block_id, set())
                if dn_id not in holders:
                    holders.add(dn_id)
                    added += 1
                if size > meta.size:
                    meta.size = size
            for block_id, holders in self.locations.items():
                if dn_id in holders and block_id not in reported:
                    holders.discard(dn_id)
                    removed += 1
            self.ops_processed += 1
            return {"added": added, "removed": removed,
                    "orphans": len(orphans), "orphan_block_ids": orphans}

    # -- internals ------------------------------------------------------------------------------

    def _check_lease(self, node: INode, client: str) -> None:
        if node.is_dir:
            raise IsDirectoryError_(node.name)
        if not node.under_construction:
            raise LeaseConflictError(f"{node.name} is not under construction")
        if node.client != client:
            raise LeaseConflictError(
                f"{node.name} is leased by {node.client!r}, not {client!r}")

    def _collect_blocks(self, node: INode) -> list[int]:
        collected: list[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            self._by_id.pop(current.id, None)
            if current.is_dir:
                stack.extend(current.children.values())
            else:
                collected.extend(current.blocks)
        return collected

    def _remove_file(self, parent: INode, node: INode) -> None:
        parent.children.pop(node.name, None)
        self._by_id.pop(node.id, None)
        for block_id in node.blocks:
            self.blocks.pop(block_id, None)
            self.locations.pop(block_id, None)

    # -- edit replay (standby side) -----------------------------------------------------------------

    def apply_edit(self, entry: EditLogEntry) -> None:
        """Apply one edit deterministically (no new ids/timestamps)."""
        op, args = entry.op, entry.args
        if op == "mkdirs":
            path, perm, owner, group, ids, now = args
            self.mkdirs(path, perm, owner, group, _ids=list(ids), _now=now)
        elif op == "create":
            (path, perm, owner, group, client, repl, overwrite, new_id,
             now) = args
            self.create(path, perm, owner, group, client, repl,
                        overwrite=overwrite, _id=new_id, _now=now)
        elif op == "add_block":
            path, client, targets, block_id, gen_stamp = args
            self.add_block(path, client, list(targets), _block_id=block_id,
                           _gen_stamp=gen_stamp)
        elif op == "complete":
            path, client, now, block_sizes = args
            self.complete(path, client, _now=now,
                          _block_sizes=list(block_sizes))
        elif op == "append":
            path, client = args
            self.append_file(path, client)
        elif op == "delete":
            path, recursive, now = args
            self.delete(path, recursive, _now=now)
        elif op == "rename":
            src, dst, now = args
            self.rename(src, dst, _now=now)
        elif op == "chmod":
            self.set_permission(*args)
        elif op == "chown":
            self.set_owner(*args)
        elif op == "set_replication":
            self.set_replication(*args)
        elif op == "set_quota":
            self.set_quota(*args)
        else:  # pragma: no cover - future ops
            raise ValueError(f"unknown edit op {op!r}")

    def file_count(self) -> int:
        files = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_dir:
                stack.extend(node.children.values())
            else:
                files += 1
        return files
