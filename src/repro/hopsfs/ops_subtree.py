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
  once, and a lock timeout or deadlock abort retries a group. The
  groups of a level run on worker threads only when the DAL's round
  trips wait (:attr:`repro.dal.driver.DALDriver.round_trips_wait`), so
  that their waits overlap; against the in-process engine they would
  only take turns on one GIL, and run on the calling thread instead. A
  directory whose children are hash-partitioned (the top levels,
  §4.2.1) is an all-shard locked index scan in a transaction of its
  own. The scans return full rows (the batched scan has no
  projection), from which the in-memory tree of the subtree is built.
* **Phase 3** — the actual operation:
  - *delete* runs bottom-up over the quiesce's levels, deepest first,
    in batched transactions (on worker threads by the same rule as the
    quiesce groups), so a namenode crash mid-way never orphans inodes
    (the undeleted remainder is still connected to the namespace and a
    re-submitted delete finishes the job — stronger semantics than
    HDFS, §6.1). A batch X-locks its inode rows first;
    their ``sub_tables`` bits then say which of the ``inode_id`` tables
    can hold rows of each, and the batch scans (one ``ppis_batch``) and
    deletes only those; its files' leases and its inodes go as one
    ``delete_batch`` each — nothing else when no inode is flagged;
  - *move*, *chmod*, *chown* and *set-quota* update only the subtree root
    in one small transaction, leaving inner inodes intact (§6.2).
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

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


@dataclass(slots=True)
class SubtreeNode:
    """One inode of the in-memory tree built while quiescing (§6.1); a
    directory's ``children`` are set when the quiesce locks them."""

    pk: tuple  # (part_key, parent_id, name)
    id: int
    is_dir: bool
    size: int
    replication: int
    children_random: bool = False
    children: Sequence["SubtreeNode"] = ()

    @property
    def name(self) -> str:
        return self.pk[2]


@dataclass
class SubtreeContext:
    path: str
    op: str
    root_row: dict
    tree: Optional[SubtreeNode] = None
    #: the inodes below the root, one list per level top-down, in the
    #: order the quiesce locked them; phase 3 deletes them bottom-up
    levels: list[list[SubtreeNode]] = field(default_factory=list)
    #: namespace items and disk space of the subtree, which the quiesce
    #: counts as it builds each level (the root alone until then)
    inodes: int = 1
    disk: int = 0


class SubtreeOpsMixin:
    """Subtree operations mixed into :class:`repro.hopsfs.namenode.NameNode`."""

    # ------------------------------------------------------------- public ops

    def delete_subtree(self, path: str) -> bool:
        """Recursive delete of a non-empty directory."""
        self._subtree_op(path, "delete", self._subtree_delete_phase3)
        return True

    def move_subtree(self, src: str, dst: str) -> bool:
        """Move of a non-empty directory."""

        def phase3(ctx: SubtreeContext) -> None:
            def fn(tx: DALTransaction):
                result = self._rename_in_tx(tx, src, dst,
                                            subtree_root_id=ctx.root_row["id"])
                tx.delete("active_subtree_ops", (ctx.root_row["id"],),
                          must_exist=False)
                return result

            self._fs_op("move_subtree", fn, hint=self.resolver.tx_hint(src)[0])

        self._subtree_op(src, "move", phase3)
        return True

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

        def phase3(ctx: SubtreeContext) -> None:
            def fn(tx: DALTransaction) -> None:
                # lock the root inode before the quota row: inode rows
                # come first in the global acquisition order (§3.4)
                row = self._subtree_clear_in_tx(tx, ctx)
                if row is None:
                    # moved or gone since phase 1: a quota row needs the
                    # bit on its inode, or no mutation would read it
                    raise FileNotFoundError_(path)
                fs_schema.flag_sub_tables(tx, row, fs_schema.SUB_QUOTA)
                quota_mod.set_quota_row(tx, ctx.root_row["id"], ns_quota,
                                        ds_quota, ctx.inodes, ctx.disk)

            self._fs_op("set_quota", fn, hint=self.resolver.tx_hint(path)[0])

        self._subtree_op(path, "set_quota", phase3)

    def _subtree_op(self, path: str, op: str,
                    phase3: Callable[[SubtreeContext], None]) -> None:
        """The three phases of one subtree operation, and its end-to-end
        metrics (the inner transactions record their own). A failure
        releases the subtree lock."""
        started = time.perf_counter()
        # every inner transaction of the protocol — including the batch
        # deletes on worker threads — parents under the phase-1 trace
        with link_scope():
            ctx = self._subtree_begin(path, op)
            try:
                self._subtree_quiesce(ctx)
                phase3(ctx)
            except Exception:
                self._subtree_release(ctx)
                raise
        self.metrics.observe("subtree_op_seconds",
                             time.perf_counter() - started, op=op)
        self.metrics.inc("subtree_op_inodes_total", ctx.inodes, op=op)

    # ------------------------------------------------------------- phase 1

    def _subtree_begin(self, path: str, op: str) -> SubtreeContext:
        """Phase 1: set the subtree lock flag on the root of the subtree."""
        if not split_path(path):
            raise PermissionDeniedError(f"cannot run {op} on the root")

        def fn(tx: DALTransaction) -> dict:
            resolved = self.resolver.resolve(tx, path,
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
                           hint=self.resolver.tx_hint(path)[0])
        return SubtreeContext(path=path, op=op, root_row=root)

    # ------------------------------------------------------------- phase 2

    def _subtree_quiesce(self, ctx: SubtreeContext) -> None:
        """Phase 2: write-lock (and release) every descendant, level by
        level, building the in-memory subtree tree and counting its
        usage."""
        root = ctx.root_row
        ctx.tree = SubtreeNode(
            (root["part_key"], root["parent_id"], root["name"]), root["id"],
            True, root["size"], root["replication"], root["children_random"])
        frontier = [ctx.tree]
        size = self.config.subtree_batch_size
        with self._unit_pool() as pool:
            while frontier:
                plain = [n for n in frontier if not n.children_random]
                groups = [plain[i: i + size]
                          for i in range(0, len(plain), size)]
                groups += [[n] for n in frontier if n.children_random]
                ctx.disk += sum(_run_level(pool, self._quiesce_group, groups))
                level = [c for node in frontier for c in node.children]
                if level:
                    ctx.levels.append(level)
                ctx.inodes += len(level)
                frontier = [c for c in level if c.is_dir]
        self._subtree_failpoint("after_quiesce")

    def _quiesce_group(self, group: list[SubtreeNode]) -> int:
        """Write-lock the children of a group of directories in one
        transaction; the commit releases the locks, which is exactly the
        'take and release' of §6.1. Returns the disk space of the files
        among the children."""
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
        disk = 0
        for node, rows in zip(group, scanned, strict=True):
            node.children = children = [
                SubtreeNode((r["part_key"], r["parent_id"], r["name"]),
                            r["id"], r["is_dir"], r["size"],
                            r["replication"], r["children_random"])
                # the scan takes no predicate: a top-level inode whose
                # hashed part_key equals this id was locked with the
                # batch, and is not a child
                for r in rows if r["parent_id"] == node.id
            ]
            disk += sum(c.size * max(1, c.replication)
                        for c in children if not c.is_dir)
        return disk

    def _unit_pool(self) -> contextlib.AbstractContextManager[
            Optional[ThreadPoolExecutor]]:
        """The worker pool a subtree op's levels run on, or ``None`` (the
        calling thread) when the DAL's round trips do not wait: then
        there is no wait to overlap."""
        if not self.driver.round_trips_wait:
            return contextlib.nullcontext()
        return ThreadPoolExecutor(
            max_workers=self.config.subtree_parallelism)

    # ------------------------------------------------------------- phase 3

    def _subtree_delete_phase3(self, ctx: SubtreeContext) -> None:
        """Bottom-up batched delete (Figure 5)."""
        batch = self.config.subtree_batch_size
        with self._unit_pool() as pool:
            for depth in range(len(ctx.levels), 0, -1):
                nodes = ctx.levels[depth - 1]
                _run_level(pool, self._delete_batch,
                           [nodes[i: i + batch]
                            for i in range(0, len(nodes), batch)])
                self._subtree_failpoint(f"after_delete_level_{depth}")
        # final transaction: remove the root, settle quota, drop the op row
        root = ctx.root_row
        parent = "/" + "/".join(split_path(ctx.path)[:-1])

        def fn(tx: DALTransaction) -> None:
            resolved = self.resolver.resolve(
                tx, ctx.path, lock_last=LockMode.EXCLUSIVE,
                lock_parent=LockMode.EXCLUSIVE, check_subtree_locks=False)
            row = resolved.last
            if row is not None and row["id"] == root["id"]:
                inode = [(row["id"], row["sub_tables"])]
                sub_rows = self._scan_sub_rows(tx, inode)
                self._delete_sub_rows(tx, row["id"], row["sub_tables"],
                                      sub_rows[row["id"]])
                tx.delete("inodes",
                          (row["part_key"], row["parent_id"], row["name"]))
                quota_mod.enforce_and_queue(
                    tx, self._quota_ancestors(
                        resolved, upto=len(resolved.components) - 1),
                    ns_delta=-ctx.inodes, ds_delta=-ctx.disk,
                    nn_id=self.nn_id)
                if resolved.parent is not None:
                    self._touch_parent(tx, resolved.parent)
                self.hint_cache.invalidate(row["parent_id"], row["name"])
            tx.delete("active_subtree_ops", (root["id"],), must_exist=False)

        self._fs_op("delete_subtree_root", fn, hint=self.resolver.tx_hint(
            parent if parent != "/" else ctx.path)[0])

    def _delete_batch(self, nodes: list[SubtreeNode]) -> None:
        """Delete a batch of already-quiesced inodes in one transaction."""

        def fn(tx: DALTransaction) -> None:
            # strongest locks up front (§3.4): X-lock every inode of the
            # batch by ascending id — the one order every multi-inode
            # transaction uses — before touching any sub-row. The inode X
            # lock is the hierarchical guard covering the block/lease/
            # quota/xattr rows deleted below (§5.2.1), so once the first
            # pass completes no other transaction can contend on them.
            # The rows come back as of the lock, so their sub_tables bits
            # are final: no writer can set one while the X lock is held.
            ordered = sorted(nodes, key=lambda n: n.pk)
            pks = [node.pk for node in ordered]
            rows = tx.read_batch("inodes", pks, lock=LockMode.EXCLUSIVE)
            bits = {node.id: row["sub_tables"] if row is not None else 0
                    for node, row in zip(ordered, rows, strict=True)}
            sub_rows = self._scan_sub_rows(
                tx, [(inode_id, b) for inode_id, b in bits.items() if b])
            for node in ordered:
                if bits[node.id]:
                    self._delete_sub_rows(tx, node.id, bits[node.id],
                                          sub_rows[node.id])
            # the leases and the inodes as one batch each: the leases in
            # their own pk order, covered by the inode X locks (§5.2.1);
            # the inodes' locks are the ones taken above, re-granted
            tx.delete_batch("leases", sorted((node.id,) for node in ordered
                                             if not node.is_dir))
            tx.delete_batch("inodes", pks)
            self.hint_cache.invalidate_many(
                [(parent_id, name) for _, parent_id, name in pks])

        self._fs_op("subtree_delete_batch", fn)

    def _subtree_root_update(self, path: str, op: str, changes: dict) -> None:
        """Shared body for chmod/chown: phase 3 updates the root row only."""

        def phase3(ctx: SubtreeContext) -> None:
            def fn(tx: DALTransaction) -> None:
                row = tx.read("inodes", tuple(ctx.root_row[c] for c in
                                              ("part_key", "parent_id", "name")),
                              lock=LockMode.EXCLUSIVE)
                if row is not None and row["id"] == ctx.root_row["id"]:
                    tx.update("inodes",
                              (row["part_key"], row["parent_id"], row["name"]),
                              changes)
                self._subtree_clear_in_tx(tx, ctx, row)

            self._fs_op(f"{op}_subtree", fn,
                        hint=self.resolver.tx_hint(path)[0])

        self._subtree_op(path, op, phase3)

    # ------------------------------------------------------------- cleanup

    def _subtree_clear_in_tx(self, tx: DALTransaction, ctx: SubtreeContext,
                             row: Optional[dict] = None) -> Optional[dict]:
        """Clear the lock flag and the active-op row inside a transaction;
        returns the X-locked root row, None if it is no longer there."""
        if row is None:
            row = tx.read("inodes", tuple(ctx.root_row[c] for c in
                                          ("part_key", "parent_id", "name")),
                          lock=LockMode.EXCLUSIVE)
        if row is not None and row["id"] != ctx.root_row["id"]:
            row = None
        if row is not None:
            tx.update("inodes", (row["part_key"], row["parent_id"], row["name"]),
                      {"subtree_lock_owner": fs_schema.NO_LOCK,
                       "subtree_op": None})
        tx.delete("active_subtree_ops", (ctx.root_row["id"],),
                  must_exist=False)
        return row

    def _subtree_release(self, ctx: SubtreeContext) -> None:
        """Best-effort unlock after a failed subtree operation.

        If the namenode dies before this runs, the flag stays set and is
        lazily reclaimed by other namenodes (§6.2) — tested explicitly.
        """
        try:
            def fn(tx: DALTransaction) -> None:
                self._subtree_clear_in_tx(tx, ctx)

            self._fs_op("subtree_release", fn,
                        hint=self.resolver.tx_hint(ctx.path)[0])
        except Exception:
            pass  # the lazy reclaim path owns cleanup from here


def _run_level(pool: Optional[ThreadPoolExecutor],
               fn: Callable[[list[SubtreeNode]], Any],
               units: list[list[SubtreeNode]]) -> list[Any]:
    """Run ``fn`` on each unit (quiesce group, delete batch) of one level;
    returns its results in unit order.

    After the first failure no further unit starts — the caller is about
    to be told the operation failed, so nothing more is locked or
    deleted on its behalf. Without a pool, or with one unit (nothing to
    overlap with), the units run on the calling thread in order and the
    first failure propagates. Otherwise they go to the pool under the
    caller's trace binding; the units already running finish, then the
    first failure in submission order is raised.
    """
    if pool is None or len(units) == 1:
        return [fn(unit) for unit in units]
    failed = threading.Event()

    def run(unit: list[SubtreeNode]) -> Any:
        if not failed.is_set():
            try:
                return fn(unit)
            except BaseException:
                failed.set()
                raise
        return None  # a unit failed: its error is raised below

    bound = TraceContext.capture().wrap(run)
    futures = [pool.submit(bound, unit) for unit in units]
    for exc in [future.exception() for future in futures]:  # waits for all
        if exc is not None:
            raise exc
    return [future.result() for future in futures]

