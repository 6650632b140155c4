"""Subtree operations protocol (paper §6).

Operations on directories with an unbounded number of descendants cannot
run in one database transaction. HopsFS instead:

* **Phase 1** — exclusively locks the subtree root, verifies (via the
  ``active_subtree_ops`` table) that no subtree operation is active at a
  lower level, then sets a persistent *subtree lock flag* carrying this
  namenode's id. Inode and subtree operations that later resolve a path
  through the flagged inode voluntarily abort and retry (§6.3); flags
  owned by dead namenodes are lazily reclaimed (§6.2).
* **Phase 2** — quiesces the subtree, one *level* at a time and top-down:
  the directories of a level are cut into groups of at most
  ``subtree_batch_size``, and one transaction per group takes (and, by
  committing, releases) exclusive locks on every child of every
  directory of the group with one locking ``ppis_batch`` — one
  ``(table, pk)``-ordered lock batch, the total order of inode
  operations — waiting out any in-flight transactions. So a transaction
  holds the child locks of up to ``subtree_batch_size`` directories at
  once, and a lock timeout or deadlock abort retries a group. A level of
  one group runs on the calling thread; several groups run on worker
  threads. A directory whose children are hash-partitioned (the top
  levels, §4.2.1) is an all-shard locked index scan in a transaction of
  its own. The scans return full rows (the batched scan has no
  projection), from which the in-memory tree of the subtree is built.
* **Phase 3** — the actual operation:
  - *delete* runs bottom-up in parallel batched transactions, so a
    namenode crash mid-way never orphans inodes (the undeleted remainder
    is still connected to the namespace and a re-submitted delete
    finishes the job — stronger semantics than HDFS, §6.1);
  - *move*, *chmod*, *chown* and *set-quota* update only the subtree root
    in one small transaction, leaving inner inodes intact (§6.2).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import (
    FileNotFoundError_,
    NotDirectoryError,
    PermissionDeniedError,
    SubtreeLockedError,
)
from repro.dal.driver import DALTransaction
from repro.hopsfs import quota as quota_mod
from repro.hopsfs import schema as fs_schema
from repro.hopsfs.paths import is_same_or_ancestor, split_path
from repro.metrics.tracing import TraceContext, current_trace, link_scope
from repro.ndb.locks import LockMode


@dataclass
class SubtreeNode:
    """One inode of the in-memory tree built while quiescing (§6.1)."""

    part_key: int
    parent_id: int
    name: str
    id: int
    is_dir: bool
    size: int
    replication: int
    level: int
    children_random: bool = False
    children: list["SubtreeNode"] = field(default_factory=list)

    @property
    def pk(self) -> tuple:
        return (self.part_key, self.parent_id, self.name)


@dataclass
class SubtreeContext:
    path: str
    op: str
    root_row: dict
    tree: Optional[SubtreeNode] = None


class SubtreeOpsMixin:
    """Subtree operations mixed into :class:`repro.hopsfs.namenode.NameNode`."""

    # ------------------------------------------------------------- public ops

    def delete_subtree(self, path: str) -> bool:
        """Recursive delete of a non-empty directory."""
        started = time.perf_counter()
        # every inner transaction of the protocol — including the batch
        # deletes on worker threads — parents under the phase-1 trace
        with link_scope():
            ctx = self._subtree_begin(path, "delete")
            try:
                self._subtree_quiesce(ctx)
                self._subtree_delete_phase3(ctx)
                self._subtree_op_done("delete", started, ctx)
                return True
            except Exception:
                self._subtree_release(ctx)
                raise

    def move_subtree(self, src: str, dst: str) -> bool:
        """Move of a non-empty directory."""
        started = time.perf_counter()
        with link_scope():
            return self._move_subtree_linked(src, dst, started)

    def _move_subtree_linked(self, src: str, dst: str,
                             started: float) -> bool:
        ctx = self._subtree_begin(src, "move")
        try:
            self._subtree_quiesce(ctx)

            def fn(tx: DALTransaction):
                result = self._rename_in_tx(tx, src, dst,
                                            subtree_root_id=ctx.root_row["id"])
                tx.delete("active_subtree_ops", (ctx.root_row["id"],),
                          must_exist=False)
                return result

            self._fs_op("move_subtree", fn, hint=self.resolver.tx_hint(src))
            self._subtree_op_done("move", started, ctx)
            return True
        except Exception:
            self._subtree_release(ctx)
            raise

    def _subtree_op_done(self, op: str, started: float,
                         ctx: "SubtreeContext") -> None:
        """End-to-end metrics for a multi-transaction subtree operation
        (the inner phases record their own per-transaction metrics)."""
        inodes, _ = _tree_usage(ctx.tree)
        self.metrics.observe("subtree_op_seconds",
                             time.perf_counter() - started, op=op)
        self.metrics.inc("subtree_op_inodes_total", inodes, op=op)

    def chmod_subtree(self, path: str, perm: int) -> None:
        """chmod of a non-empty directory (updates the root inode only)."""
        self._subtree_root_update(path, "chmod", {"perm": perm})

    def chown_subtree(self, path: str, owner: str, group: str) -> None:
        """chown of a non-empty directory (updates the root inode only)."""
        self._subtree_root_update(path, "chown", {"owner": owner,
                                                  "group": group})

    def set_quota(self, path: str, ns_quota: Optional[int],
                  ds_quota: Optional[int]) -> None:
        """Set (or clear) quotas on a directory.

        Requires a subtree traversal to compute the directory's current
        usage, so it runs under the subtree protocol even though phase 3
        only writes the quota row and the root inode.
        """
        with link_scope():
            self._set_quota_linked(path, ns_quota, ds_quota)

    def _set_quota_linked(self, path: str, ns_quota: Optional[int],
                          ds_quota: Optional[int]) -> None:
        ctx = self._subtree_begin(path, "set_quota")
        try:
            self._subtree_quiesce(ctx)
            ns_used, ds_used = _tree_usage(ctx.tree)

            def fn(tx: DALTransaction) -> None:
                # lock the root inode before the quota row: inode rows
                # come first in the global acquisition order (§3.4)
                self._subtree_clear_in_tx(tx, ctx)
                quota_mod.set_quota_row(tx, ctx.root_row["id"], ns_quota,
                                        ds_quota, ns_used, ds_used)

            self._fs_op("set_quota", fn, hint=self.resolver.tx_hint(path))
        except Exception:
            self._subtree_release(ctx)
            raise

    # ------------------------------------------------------------- phase 1

    def _subtree_begin(self, path: str, op: str) -> SubtreeContext:
        """Phase 1: set the subtree lock flag on the root of the subtree."""
        if not split_path(path):
            raise PermissionDeniedError(f"cannot run {op} on the root")

        def fn(tx: DALTransaction) -> dict:
            resolved = self.resolver.resolve(tx, path,  # rt: cost(1, reason=warm resolve of a hinted existing path: one locked batched read)
                                             lock_last=LockMode.EXCLUSIVE)
            row = resolved.last
            if row is None:
                raise FileNotFoundError_(path)
            if not row["is_dir"]:
                raise NotDirectoryError(path)
            # no active subtree operation may overlap this subtree (§6.1);
            # sorted by pk so stale-entry reclaims keep one lock order
            for active in sorted(tx.full_scan("active_subtree_ops"),
                                 key=lambda a: a["inode_id"]):
                if (is_same_or_ancestor(path, active["path"])
                        or is_same_or_ancestor(active["path"], path)):
                    if not self._is_namenode_dead(active["nn_id"]):
                        raise SubtreeLockedError(
                            f"subtree op {active['op']} active on "
                            f"{active['path']}")
                    # stale entry of a dead namenode: reclaim it
                    tx.delete("active_subtree_ops", (active["inode_id"],),
                              must_exist=False)
            pk = (row["part_key"], row["parent_id"], row["name"])
            tx.update("inodes", pk, {"subtree_lock_owner": self.nn_id,
                                     "subtree_op": op})
            tx.insert("active_subtree_ops",
                      {"inode_id": row["id"], "nn_id": self.nn_id, "op": op,
                       "path": path})
            row = dict(row)
            row["subtree_lock_owner"] = self.nn_id
            row["subtree_op"] = op
            return row

        root = self._fs_op(f"{op}_subtree_lock", fn,
                           hint=self.resolver.tx_hint(path))
        return SubtreeContext(path=path, op=op, root_row=root)

    # ------------------------------------------------------------- phase 2

    def _subtree_quiesce(self, ctx: SubtreeContext) -> None:
        """Phase 2: write-lock (and release) every descendant, level by
        level, building the in-memory subtree tree."""
        root = ctx.root_row
        ctx.tree = SubtreeNode(
            part_key=root["part_key"], parent_id=root["parent_id"],
            name=root["name"], id=root["id"], is_dir=True,
            size=root["size"], replication=root["replication"], level=0,
            children_random=root["children_random"])
        frontier = [ctx.tree]
        size = self.config.subtree_batch_size
        with ThreadPoolExecutor(
                max_workers=self.config.subtree_parallelism) as pool:
            while frontier:
                plain = [n for n in frontier if not n.children_random]
                groups = [plain[i: i + size]
                          for i in range(0, len(plain), size)]
                groups += [[n] for n in frontier if n.children_random]
                _run_level(pool, self._quiesce_group, groups)
                frontier = [c for node in frontier for c in node.children
                            if c.is_dir]
        self._subtree_failpoint("after_quiesce")

    def _quiesce_group(self, group: list[SubtreeNode]) -> None:
        """Write-lock the children of a group of directories in one
        transaction; the commit releases the locks, which is exactly the
        'take and release' of §6.1."""
        first = group[0]

        def fn(tx: DALTransaction) -> list[list[dict]]:
            trace = current_trace()
            if trace is not None:
                trace.set_label("dirs", len(group))
            if first.children_random:  # children on every shard: alone
                return [tx.index_scan("inodes", "by_parent", (first.id,),
                                      lock=LockMode.EXCLUSIVE)]
            return tx.ppis_batch(
                [("inodes", {"part_key": node.id}) for node in group],
                lock=LockMode.EXCLUSIVE)

        scanned = self._fs_op("subtree_quiesce", fn,
                              hint=("inodes", {"part_key": first.id}))
        for node, rows in zip(group, scanned, strict=True):
            node.children = [
                SubtreeNode(part_key=r["part_key"], parent_id=r["parent_id"],
                            name=r["name"], id=r["id"], is_dir=r["is_dir"],
                            size=r["size"], replication=r["replication"],
                            level=node.level + 1,
                            children_random=r["children_random"])
                # the scan takes no predicate: a top-level inode whose
                # hashed part_key equals this id was locked with the
                # batch, and is not a child
                for r in rows if r["parent_id"] == node.id
            ]

    # ------------------------------------------------------------- phase 3

    def _subtree_delete_phase3(self, ctx: SubtreeContext) -> None:
        """Bottom-up batched parallel delete (Figure 5)."""
        assert ctx.tree is not None
        by_level: dict[int, list[SubtreeNode]] = {}
        stack = [ctx.tree]
        while stack:
            node = stack.pop()
            by_level.setdefault(node.level, []).append(node)
            stack.extend(node.children)
        total_ns = sum(len(nodes) for nodes in by_level.values())
        total_ds = sum(n.size * max(1, n.replication)
                       for nodes in by_level.values() for n in nodes
                       if not n.is_dir)
        batch = self.config.subtree_batch_size
        with ThreadPoolExecutor(
                max_workers=self.config.subtree_parallelism) as pool:
            for level in sorted(by_level, reverse=True):
                if level == 0:
                    continue  # the root is deleted last, below
                nodes = by_level[level]
                _run_level(pool, self._delete_batch,
                           [nodes[i: i + batch]
                            for i in range(0, len(nodes), batch)])
                self._subtree_failpoint(f"after_delete_level_{level}")
        # final transaction: remove the root, settle quota, drop the op row
        root = ctx.root_row
        parent = "/" + "/".join(split_path(ctx.path)[:-1])

        def fn(tx: DALTransaction) -> None:
            # rt: cost(1, reason=warm resolve of the hinted quiesced root: parent and target locked in one batched read)
            resolved = self.resolver.resolve(
                tx, ctx.path, lock_last=LockMode.EXCLUSIVE,
                lock_parent=LockMode.EXCLUSIVE, check_subtree_locks=False)
            row = resolved.last
            if row is not None and row["id"] == root["id"]:
                sub_rows = self._scan_sub_rows(tx, [(row["id"], True)])
                # rt: cost(0, reason=the subtree root is a directory: no block rows, so none of remove_file_blocks' per-replica reads)
                self._delete_sub_rows(tx, row["id"], True, sub_rows[row["id"]])
                tx.delete("inodes",
                          (row["part_key"], row["parent_id"], row["name"]))
                quota_mod.enforce_and_queue(
                    tx, self._ancestor_ids(
                        resolved, upto=len(resolved.components) - 1),
                    ns_delta=-total_ns, ds_delta=-total_ds,
                    nn_id=self.nn_id)
                if resolved.parent is not None:
                    self._touch_parent(tx, resolved.parent)
                self.hint_cache.invalidate(row["parent_id"], row["name"])
            tx.delete("active_subtree_ops", (root["id"],), must_exist=False)

        self._fs_op("delete_subtree_root", fn, hint=self.resolver.tx_hint(
            parent if parent != "/" else ctx.path))

    def _delete_batch(self, nodes: list[SubtreeNode]) -> None:
        """Delete a batch of already-quiesced inodes in one transaction."""

        def fn(tx: DALTransaction) -> None:
            # strongest locks up front (§3.4): X-lock every inode of the
            # batch by ascending id — the one order every multi-inode
            # transaction uses — before touching any sub-row. The inode X
            # lock is the hierarchical guard covering the block/lease/
            # quota/xattr rows deleted below (§5.2.1), so once the first
            # pass completes no other transaction can contend on them.
            ordered = sorted(nodes, key=lambda n: n.pk)
            tx.read_batch("inodes", [node.pk for node in ordered],
                          lock=LockMode.EXCLUSIVE)
            sub_rows = self._scan_sub_rows(
                tx, [(node.id, node.is_dir) for node in ordered])
            for node in ordered:
                self._delete_sub_rows(tx, node.id, node.is_dir,
                                      sub_rows[node.id])
                tx.delete("inodes", node.pk, must_exist=False)
                self.hint_cache.invalidate(node.parent_id, node.name)

        self._fs_op("subtree_delete_batch", fn)

    def _subtree_root_update(self, path: str, op: str, changes: dict) -> None:
        """Shared phase-3 body for chmod/chown: update the root row only."""
        with link_scope():
            self._subtree_root_update_linked(path, op, changes)

    def _subtree_root_update_linked(self, path: str, op: str,
                                    changes: dict) -> None:
        ctx = self._subtree_begin(path, op)
        try:
            self._subtree_quiesce(ctx)

            def fn(tx: DALTransaction) -> None:
                row = tx.read("inodes", tuple(ctx.root_row[c] for c in
                                              ("part_key", "parent_id", "name")),
                              lock=LockMode.EXCLUSIVE)
                if row is not None and row["id"] == ctx.root_row["id"]:
                    tx.update("inodes",
                              (row["part_key"], row["parent_id"], row["name"]),
                              changes)
                self._subtree_clear_in_tx(tx, ctx, row)

            self._fs_op(f"{op}_subtree", fn, hint=self.resolver.tx_hint(path))
        except Exception:
            self._subtree_release(ctx)
            raise

    # ------------------------------------------------------------- cleanup

    def _subtree_clear_in_tx(self, tx: DALTransaction, ctx: SubtreeContext,
                             row: Optional[dict] = None) -> None:
        """Clear the lock flag and the active-op row inside a transaction."""
        if row is None:
            row = tx.read("inodes", tuple(ctx.root_row[c] for c in
                                          ("part_key", "parent_id", "name")),
                          lock=LockMode.EXCLUSIVE)
        if row is not None and row["id"] == ctx.root_row["id"]:
            tx.update("inodes", (row["part_key"], row["parent_id"], row["name"]),
                      {"subtree_lock_owner": fs_schema.NO_LOCK,
                       "subtree_op": None})
        tx.delete("active_subtree_ops", (ctx.root_row["id"],),
                  must_exist=False)

    def _subtree_release(self, ctx: SubtreeContext) -> None:
        """Best-effort unlock after a failed subtree operation.

        If the namenode dies before this runs, the flag stays set and is
        lazily reclaimed by other namenodes (§6.2) — tested explicitly.
        """
        try:
            def fn(tx: DALTransaction) -> None:
                self._subtree_clear_in_tx(tx, ctx)

            self._fs_op("subtree_release", fn,
                        hint=self.resolver.tx_hint(ctx.path))
        except Exception:
            pass  # the lazy reclaim path owns cleanup from here


def _run_level(pool: ThreadPoolExecutor,
               fn: Callable[[list[SubtreeNode]], None],
               units: list[list[SubtreeNode]]) -> None:
    """Run ``fn`` on each unit (quiesce group, delete batch) of one level.

    One unit has nothing to overlap with: it runs on the calling thread
    and starts no pool thread. Several go to the pool, under the
    caller's trace binding. After the first failure no further unit
    starts — the caller is about to be told the operation failed, so
    nothing more is locked or deleted on its behalf; the units already
    running finish, then the first failure in submission order is raised.
    """
    if len(units) == 1:
        fn(units[0])
        return
    failed = threading.Event()

    def run(unit: list[SubtreeNode]) -> None:
        if not failed.is_set():
            try:
                fn(unit)
            except BaseException:
                failed.set()
                raise

    bound = TraceContext.capture().wrap(run)
    futures = [pool.submit(bound, unit) for unit in units]
    for exc in [future.exception() for future in futures]:  # waits for all
        if exc is not None:
            raise exc


def _tree_usage(tree: Optional[SubtreeNode]) -> tuple[int, int]:
    """(namespace items, disk space) consumed by a quiesced subtree."""
    if tree is None:
        return 1, 0
    ns = 0
    ds = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        ns += 1
        if not node.is_dir:
            ds += node.size * max(1, node.replication)
        stack.extend(node.children)
    return ns, ds
