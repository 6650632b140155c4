"""Block life-cycle helpers (paper §4.1, Figure 3).

A block moves through states tracked in dedicated normalized tables:

* ``blocks`` — the block itself (under-construction → complete);
* ``ruc`` — replicas being written by a client pipeline;
* ``replicas`` — finalized replica locations;
* ``urb`` — blocks with fewer live replicas than the target;
* ``prb`` — re-replication work handed to a datanode;
* ``cr`` — replicas reported corrupt;
* ``er`` — excess replicas (e.g. after a datanode rejoins);
* ``inv`` — replicas scheduled for deletion on a datanode;
* ``block_lookup`` — block id → inode id (block reports carry bare ids).

All functions here run inside a caller-provided transaction whose inode
row is already exclusively locked — hierarchical locking makes that lock
cover these child rows (§5.2.1).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.dal.driver import DALTransaction

BLOCK_STATE_UNDER_CONSTRUCTION = "under_construction"
BLOCK_STATE_COMPLETE = "complete"
REPLICA_STATE_FINALIZED = "finalized"


def allocate_block(tx: DALTransaction, inode_id: int, block_id: int,
                   index: int, gen_stamp: int,
                   target_dns: Sequence[int]) -> dict:
    """Create a new under-construction block with RUC entries."""
    block = {
        "inode_id": inode_id,
        "block_id": block_id,
        "idx": index,
        "size": 0,
        "gen_stamp": gen_stamp,
        "state": BLOCK_STATE_UNDER_CONSTRUCTION,
    }
    tx.insert("blocks", block)
    tx.insert("block_lookup", {"block_id": block_id, "inode_id": inode_id})
    for dn_id in sorted(target_dns):
        tx.insert("ruc", {"inode_id": inode_id, "block_id": block_id,
                          "dn_id": dn_id})
    return block


def finalize_replica(tx: DALTransaction, inode_id: int, block_id: int,
                     dn_id: int, size: int) -> None:
    """A datanode finished writing a replica (blockReceived)."""
    tx.delete("ruc", (inode_id, block_id, dn_id), must_exist=False)
    existing = tx.read("replicas", (inode_id, block_id, dn_id))
    if existing is None:
        tx.insert("replicas", {"inode_id": inode_id, "block_id": block_id,
                               "dn_id": dn_id, "state": REPLICA_STATE_FINALIZED})
    block = tx.read("blocks", (inode_id, block_id))
    if block is not None and size > block["size"]:
        tx.update("blocks", (inode_id, block_id), {"size": size})
    # replication work satisfied?
    prb = tx.read("prb", (inode_id, block_id))
    if prb is not None and prb["target_dn"] == dn_id:
        tx.delete("prb", (inode_id, block_id))


def complete_block(tx: DALTransaction, inode_id: int, block_id: int) -> None:
    tx.update("blocks", (inode_id, block_id),
              {"state": BLOCK_STATE_COMPLETE})


def check_replication(tx: DALTransaction, inode_id: int, block_id: int,
                      wanted: int) -> None:
    """Reconcile URB/ER state of one block against its live replicas."""
    replicas = sorted(
        tx.ppis("replicas", {"inode_id": inode_id},
                predicate=lambda r: r["block_id"] == block_id),
        key=lambda r: r["dn_id"])
    actual = len(replicas)
    urb = tx.read("urb", (inode_id, block_id))
    if actual < wanted:
        level = wanted - actual
        if urb is None:
            tx.insert("urb", {"inode_id": inode_id, "block_id": block_id,
                              "level": level, "wanted": wanted})
        elif urb["level"] != level or urb["wanted"] != wanted:
            tx.update("urb", (inode_id, block_id),
                      {"level": level, "wanted": wanted})
    else:
        if urb is not None:
            tx.delete("urb", (inode_id, block_id))
        for extra in replicas[wanted:]:
            dn_id = extra["dn_id"]
            if tx.read("er", (inode_id, block_id, dn_id)) is None:
                tx.insert("er", {"inode_id": inode_id, "block_id": block_id,
                                 "dn_id": dn_id})
            invalidate_replica(tx, inode_id, block_id, dn_id)


def invalidate_replica(tx: DALTransaction, inode_id: int, block_id: int,
                       dn_id: int) -> None:
    """Schedule a replica for deletion on its datanode."""
    tx.delete("replicas", (inode_id, block_id, dn_id), must_exist=False)
    if tx.read("inv", (inode_id, block_id, dn_id)) is None:
        tx.insert("inv", {"inode_id": inode_id, "block_id": block_id,
                          "dn_id": dn_id})


def mark_corrupt(tx: DALTransaction, inode_id: int, block_id: int,
                 dn_id: int, wanted: int) -> None:
    """Record a corrupt replica and trigger re-replication (CR table)."""
    if tx.read("cr", (inode_id, block_id, dn_id)) is None:
        tx.insert("cr", {"inode_id": inode_id, "block_id": block_id,
                         "dn_id": dn_id})
    invalidate_replica(tx, inode_id, block_id, dn_id)
    check_replication(tx, inode_id, block_id, wanted)


_PK_COLUMNS = {
    "ruc": ("inode_id", "block_id", "dn_id"),
    "urb": ("inode_id", "block_id"),
    "prb": ("inode_id", "block_id"),
    "cr": ("inode_id", "block_id", "dn_id"),
    "er": ("inode_id", "block_id", "dn_id"),
}

#: the ``inode_id``-partitioned tables holding a file's block state, in
#: the order :func:`remove_file_blocks` empties them
FILE_BLOCK_TABLES = ("blocks", "replicas", *_PK_COLUMNS)


def remove_file_blocks(tx: DALTransaction, inode_id: int,
                       rows: Mapping[str, Sequence[dict]]) -> int:
    """Delete every block-related row of a file; queue replica deletions.

    ``rows`` holds the file's rows of each of :data:`FILE_BLOCK_TABLES`
    (the caller fetches them, with whatever else it needs, in one
    ``ppis_batch``). Returns the number of blocks removed. Unlike HDFS —
    where a failed delete can orphan blocks until block reports reclaim
    them hours later (§6.1) — this runs in the same transaction that
    deletes the inode, so failures leave no inconsistency.
    """
    file_blocks = sorted(rows["blocks"], key=lambda b: b["block_id"])
    replica_dns: dict[int, list[int]] = {}
    for row in rows["replicas"]:
        replica_dns.setdefault(row["block_id"], []).append(row["dn_id"])
    for block in file_blocks:
        block_id = block["block_id"]
        for dn_id in sorted(replica_dns.get(block_id, ())):
            invalidate_replica(tx, inode_id, block_id, dn_id)
        tx.delete("blocks", (inode_id, block_id))
        tx.delete("block_lookup", (block_id,), must_exist=False)
    for table, pk_columns in _PK_COLUMNS.items():
        for key in sorted(tuple(row[col] for col in pk_columns)
                          for row in rows[table]):
            tx.delete(table, key, must_exist=False)
    return len(file_blocks)


def lookup_block_inode(tx: DALTransaction, block_id: int) -> Optional[int]:
    row = tx.read("block_lookup", (block_id,))
    return row["inode_id"] if row is not None else None
