"""Declarative file system checking over database metadata.

The paper cites SQCK [20] ("some file system operations, such as fsck,
can be more efficient when implemented using a relational database") and
§9 argues that metadata-in-a-database becomes a reliable source of ground
truth. This module is that idea realised: every namespace invariant is
one declarative query over the metadata tables —

* every inode's parent exists and is a directory;
* every block/replica/lease/quota/xattr row points at a live inode;
* every block has a ``block_lookup`` entry and vice versa;
* under-replicated blocks are enqueued in ``urb``;
* files under construction hold leases (and only those do);
* every row keyed by an inode id is covered by the inode's
  ``sub_tables`` bits;
* subtree lock flags belong to live namenodes.

``repair=True`` removes dangling dependent rows, re-queues missing
replication work and sets missing ``sub_tables`` bits; structural
problems (orphaned inodes) are reported, never auto-deleted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.dal.driver import DALTransaction
from repro.hopsfs import schema as fs_schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.hopsfs.namenode import NameNode


@dataclass(frozen=True)
class FsckIssue:
    check: str
    table: str
    key: tuple
    detail: str
    repairable: bool = True


@dataclass
class FsckReport:
    issues: list[FsckIssue] = field(default_factory=list)
    repaired: int = 0
    inodes_checked: int = 0
    blocks_checked: int = 0

    @property
    def healthy(self) -> bool:
        return not self.issues

    def by_check(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for issue in self.issues:
            counts[issue.check] = counts.get(issue.check, 0) + 1
        return counts


class Fsck:
    def __init__(self, namenode: "NameNode") -> None:
        self._nn = namenode

    def run(self, repair: bool = False) -> FsckReport:
        """Run every check in one consistent scan pass."""
        report = FsckReport()
        nn = self._nn

        def fn(tx: DALTransaction) -> None:
            inodes = tx.full_scan("inodes")
            inode_ids = {r["id"] for r in inodes} | {fs_schema.ROOT_ID}
            dirs = ({r["id"] for r in inodes if r["is_dir"]}
                    | {fs_schema.ROOT_ID})
            report.inodes_checked = len(inodes)

            # 1. structural: parents exist and are directories
            for row in inodes:
                if row["parent_id"] not in inode_ids:
                    report.issues.append(FsckIssue(
                        "orphaned-inode", "inodes",
                        (row["part_key"], row["parent_id"], row["name"]),
                        f"parent {row['parent_id']} does not exist",
                        repairable=False))
                elif row["parent_id"] not in dirs:
                    report.issues.append(FsckIssue(
                        "parent-not-directory", "inodes",
                        (row["part_key"], row["parent_id"], row["name"]),
                        f"parent {row['parent_id']} is a file",
                        repairable=False))

            # 2. blocks reference live inodes; lookup table is consistent
            blocks = tx.full_scan("blocks")
            block_keys = {(b["inode_id"], b["block_id"]) for b in blocks}
            block_ids = {b["block_id"] for b in blocks}
            report.blocks_checked = len(blocks)
            # repair deletes follow the global pk lock order (§3.4)
            for block in sorted(blocks, key=lambda b: (b["inode_id"],
                                                       b["block_id"])):
                if block["inode_id"] not in inode_ids:
                    self._flag(report, tx, repair, "dangling-block",
                               "blocks", (block["inode_id"],
                                          block["block_id"]),
                               "inode missing")
            lookups = tx.full_scan("block_lookup")
            lookup_ids = {r["block_id"] for r in lookups}
            for row in sorted(lookups, key=lambda r: r["block_id"]):
                if row["block_id"] not in block_ids:
                    self._flag(report, tx, repair, "stale-block-lookup",
                               "block_lookup", (row["block_id"],),
                               "block missing")
            for block in blocks:
                if block["block_id"] not in lookup_ids:
                    report.issues.append(FsckIssue(
                        "missing-block-lookup", "block_lookup",
                        (block["block_id"],), "no lookup row"))
                    if repair:
                        tx.insert("block_lookup",
                                  {"block_id": block["block_id"],
                                   "inode_id": block["inode_id"]})
                        report.repaired += 1

            # 3. dependent tables point at live parents
            for table, key_cols, owner_col in (
                    ("replicas", ("inode_id", "block_id", "dn_id"),
                     "inode_id"),
                    ("ruc", ("inode_id", "block_id", "dn_id"), "inode_id"),
                    ("urb", ("inode_id", "block_id"), "inode_id"),
                    ("prb", ("inode_id", "block_id"), "inode_id"),
                    ("cr", ("inode_id", "block_id", "dn_id"), "inode_id"),
                    ("er", ("inode_id", "block_id", "dn_id"), "inode_id"),
                    ("xattrs", ("inode_id", "name"), "inode_id"),
                    ("quotas", ("inode_id",), "inode_id"),
                    ("leases", ("inode_id",), "inode_id")):
                for row in sorted(tx.full_scan(table),
                                  key=lambda r, cols=key_cols:
                                  tuple(r[c] for c in cols)):
                    if row[owner_col] not in inode_ids:
                        self._flag(report, tx, repair,
                                   f"dangling-{table}", table,
                                   tuple(row[c] for c in key_cols),
                                   "inode missing")

            # 4. replicas belong to known blocks
            for row in sorted(tx.full_scan("replicas"),
                              key=lambda r: (r["inode_id"], r["block_id"],
                                             r["dn_id"])):
                if (row["inode_id"], row["block_id"]) not in block_keys:
                    if row["inode_id"] in inode_ids:
                        self._flag(report, tx, repair, "replica-sans-block",
                                   "replicas", (row["inode_id"],
                                                row["block_id"],
                                                row["dn_id"]),
                                   "block row missing")

            # 5. replication level: complete blocks with too few replicas
            #    must be queued for re-replication
            replica_counts: dict[tuple, int] = {}
            for row in tx.full_scan("replicas"):
                key = (row["inode_id"], row["block_id"])
                replica_counts[key] = replica_counts.get(key, 0) + 1
            wanted = {r["id"]: r["replication"] for r in inodes
                      if not r["is_dir"]}
            urb_keys = {(r["inode_id"], r["block_id"])
                        for r in tx.full_scan("urb")}
            for block in blocks:
                if block["state"] != "complete":
                    continue
                key = (block["inode_id"], block["block_id"])
                target = wanted.get(block["inode_id"], 0)
                if replica_counts.get(key, 0) < target and key not in urb_keys:
                    report.issues.append(FsckIssue(
                        "unqueued-under-replication", "urb", key,
                        f"{replica_counts.get(key, 0)}/{target} replicas"))
                    if repair:
                        tx.insert("urb", {
                            "inode_id": key[0], "block_id": key[1],
                            "level": target - replica_counts.get(key, 0),
                            "wanted": target})
                        report.repaired += 1

            # 6. lease consistency
            lease_ids = {r["inode_id"] for r in tx.full_scan("leases")}
            for row in inodes:
                if row["is_dir"]:
                    continue
                if row["under_construction"] and row["id"] not in lease_ids:
                    report.issues.append(FsckIssue(
                        "uc-file-without-lease", "leases", (row["id"],),
                        f"file {row['name']} under construction, no lease",
                        repairable=False))
            for inode_id in sorted(lease_ids):
                holder = next((r for r in inodes if r["id"] == inode_id),
                              None)
                if holder is not None and not holder["under_construction"]:
                    self._flag(report, tx, repair, "lease-on-closed-file",
                               "leases", (inode_id,),
                               "file is not under construction")

            # 7. every row keyed by a live inode's id is covered by that
            #    inode's sub_tables bit, else a delete would leave it
            #    behind; repair sets the bit (inode rows in pk order)
            by_id = {r["id"]: r for r in inodes}
            schemas = {s.name: s for s in fs_schema.ALL_TABLES}
            unflagged: dict[int, int] = {}
            for table, bit in fs_schema.SUB_TABLE_BITS.items():
                schema = schemas[table]
                for row in sorted(tx.full_scan(table), key=schema.pk_of):
                    inode = by_id.get(row["inode_id"])
                    if inode is None or inode["sub_tables"] & bit:
                        continue  # dangling rows are checks 2 and 3
                    report.issues.append(FsckIssue(
                        "unflagged-sub-row", table, schema.pk_of(row),
                        f"inode {inode['id']} has sub_tables bit {bit} clear"))
                    unflagged[inode["id"]] = unflagged.get(inode["id"], 0) | bit
            if repair:
                for inode_id in sorted(unflagged, key=lambda i:
                                       fs_schema.INODES.pk_of(by_id[i])):
                    fs_schema.flag_sub_tables(tx, by_id[inode_id],
                                              unflagged[inode_id])
                    report.repaired += 1

            # 8. subtree locks owned by dead namenodes (sorted by pk so the
            # repair writes follow the global lock order, §3.4)
            for row in sorted(inodes, key=lambda r: (r["part_key"],
                                                     r["parent_id"],
                                                     r["name"])):
                owner = row["subtree_lock_owner"]
                if owner == fs_schema.NO_LOCK:
                    continue
                if nn._is_namenode_dead(owner):
                    report.issues.append(FsckIssue(
                        "stale-subtree-lock", "inodes",
                        (row["part_key"], row["parent_id"], row["name"]),
                        f"owner namenode {owner} is dead"))
                    if repair:
                        tx.update("inodes",
                                  (row["part_key"], row["parent_id"],
                                   row["name"]),
                                  {"subtree_lock_owner": fs_schema.NO_LOCK,
                                   "subtree_op": None})
                        tx.delete("active_subtree_ops", (row["id"],),
                                  must_exist=False)
                        report.repaired += 1

        nn._fs_op("fsck", fn)
        return report

    @staticmethod
    def _flag(report: FsckReport, tx: DALTransaction, repair: bool,
              check: str, table: str, key: tuple, detail: str) -> None:
        report.issues.append(FsckIssue(check, table, key, detail))
        if repair:
            tx.delete(table, key, must_exist=False)
            report.repaired += 1
