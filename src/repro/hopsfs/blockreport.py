"""Block-report processing (paper §7.7).

Datanodes periodically send the full list of blocks they store. The
report is the ground truth for available replicas: the namenode
reconciles it against the replica map in the database —

* reported blocks with no replica row gain one (``finalize_replica``);
* replica rows for this datanode whose block was *not* reported are
  removed and the block re-checked for under-replication;
* reported blocks that no longer belong to any file are invalidated
  (the datanode is told to delete them).

Unlike HDFS, HopsFS persists block locations in the database, so reports
are needed only as an anti-entropy mechanism, not to rebuild state after
a namenode restart. Processing a report is expensive for HopsFS — the
metadata must be read over the network from the database — which is why
the paper measures ~30 reports/s on 30 namenodes versus ~60/s for HDFS;
the leader load-balances reports across namenodes (§3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dal.driver import DALTransaction
from repro.hopsfs import blocks as blk

if TYPE_CHECKING:  # pragma: no cover
    from repro.hopsfs.namenode import NameNode


class BlockReportProcessor:
    def __init__(self, namenode: "NameNode", batch_size: int = 512) -> None:
        self._nn = namenode
        self._batch = batch_size
        self.reports_processed = 0
        self.replicas_added = 0
        self.replicas_removed = 0
        self.blocks_invalidated = 0

    def process(self, dn_id: int, report: list[tuple[int, int]]) -> dict:
        """Process one full block report from ``dn_id``."""
        nn = self._nn
        reported: dict[int, int] = {block_id: size for block_id, size in report}
        # 1. map reported block ids to inodes with batched PK lookups
        block_ids = sorted(reported)
        inode_of: dict[int, int] = {}
        orphans: list[int] = []
        for start in range(0, len(block_ids), self._batch):
            chunk = block_ids[start: start + self._batch]

            def lookup(tx: DALTransaction, chunk=chunk) -> list:
                return tx.read_batch("block_lookup",
                                     [(block_id,) for block_id in chunk])

            rows = nn._fs_op("block_report_lookup", lookup)
            for block_id, row in zip(chunk, rows, strict=True):
                if row is None:
                    orphans.append(block_id)
                else:
                    inode_of[block_id] = row["inode_id"]
        # 2. replica rows this datanode is *supposed* to have
        def db_view(tx: DALTransaction) -> list[dict]:
            # hfs: allow(HFS101, reason=anti-entropy reconciliation needs the full per-datanode view; replicas are keyed by inode)
            return tx.index_scan("replicas", "by_dn", (dn_id,))

        existing = nn._fs_op("block_report_dbview", db_view)
        known = {(r["inode_id"], r["block_id"]) for r in existing}
        # 3. reconcile per inode (one transaction per inode keeps row locks
        #    narrow; a report touches many unrelated files)
        by_inode: dict[int, list[int]] = {}
        for block_id, inode_id in inode_of.items():
            by_inode.setdefault(inode_id, []).append(block_id)
        added = removed = 0
        for inode_id, blocks_here in by_inode.items():
            new_blocks = [b for b in blocks_here
                          if (inode_id, b) not in known]
            if not new_blocks:
                continue

            def add(tx: DALTransaction, inode_id=inode_id,
                    new_blocks=new_blocks) -> int:
                row = nn._lock_inode_by_id(tx, inode_id)
                if row is None:
                    return 0
                count = 0
                for block_id in sorted(new_blocks):
                    if tx.read("blocks", (inode_id, block_id)) is None:
                        continue  # stale lookup row
                    blk.finalize_replica(tx, inode_id, block_id, dn_id,
                                         reported[block_id])
                    blk.check_replication(tx, inode_id, block_id,
                                          row["replication"])
                    count += 1
                return count

            added += nn._fs_op("block_report_add", add,
                               hint=("blocks", {"inode_id": inode_id}))
        for row in existing:
            if row["block_id"] in reported:
                continue

            def drop(tx: DALTransaction, row=row) -> int:
                inode_row = nn._lock_inode_by_id(tx, row["inode_id"])
                if inode_row is None:
                    return 0
                replica_pk = (row["inode_id"], row["block_id"], dn_id)
                # the view was read in an earlier transaction: look again
                # under the inode lock
                if tx.read("replicas", replica_pk) is None:
                    return 0
                tx.delete("replicas", replica_pk)
                blk.check_replication(tx, row["inode_id"], row["block_id"],
                                      inode_row["replication"])
                return 1

            removed += nn._fs_op("block_report_drop", drop,
                                 hint=("blocks", {"inode_id": row["inode_id"]}))
        # 4. orphaned blocks: tell the datanode to delete them
        self.reports_processed += 1
        self.replicas_added += added
        self.replicas_removed += removed
        self.blocks_invalidated += len(orphans)
        return {"added": added, "removed": removed, "orphans": len(orphans),
                "orphan_block_ids": orphans}
