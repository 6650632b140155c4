"""Erasure coding as extended metadata (paper §9).

The paper lists erasure coding among the features already added to HopsFS
"using this approach" — extra tables carrying the inode's foreign key, so
integrity follows from the normalized schema rather than from bespoke
namenode state. This module implements an XOR parity scheme:

* ``convert(path, k)`` groups a closed file's blocks into stripes of
  ``k``, computes one parity block per stripe (bytewise XOR of the
  zero-padded members), writes it to a datanode that holds none of the
  stripe's blocks, then reduces every member's replication target to 1 —
  trading the 3× replication overhead for (k+1)/k;
* ``repair_round()`` finds erasure-coded blocks with **no** surviving
  replica — exactly the case plain re-replication cannot fix — and
  reconstructs them from the stripe's surviving members;
* the metadata (``ec_files``, ``ec_groups``) rides the same
  partition-pruned access paths and hierarchical locks as everything
  else; parity blocks are ordinary rows in ``blocks``/``replicas``/
  ``block_lookup`` (with a negative stripe index), so block reports and
  the fsck invariants cover them for free.

XOR parity tolerates one lost member per stripe. That is the honest
scope of this reproduction; swapping in Reed–Solomon only changes the
encode/decode arithmetic, not the metadata design the paper describes.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import FileNotFoundError_, FileSystemError, IsDirectoryError_
from repro.dal.driver import DALTransaction
from repro.hopsfs import blocks as blk
from repro.hopsfs import schema as fs_schema
from repro.ndb.locks import LockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.hopsfs.cluster import HopsFSCluster


def xor_blocks(chunks: list[bytes]) -> bytes:
    """Bytewise XOR of chunks, zero-padded to the longest one."""
    width = max((len(c) for c in chunks), default=0)
    out = bytearray(width)
    for chunk in chunks:
        for i, byte in enumerate(chunk):
            out[i] ^= byte
    return bytes(out)


class ErasureCodingManager:
    """Drives conversion and reconstruction on a HopsFS cluster."""

    def __init__(self, cluster: "HopsFSCluster") -> None:
        self._cluster = cluster
        self.files_converted = 0
        self.blocks_reconstructed = 0

    # -- conversion --------------------------------------------------------------------

    def convert(self, path: str, k: int = 4) -> int:
        """Erasure-code a closed file; returns the number of stripes.

        One transaction creates the parity metadata (blocks rows with
        negative stripe indexes, lookup entries, RUC targets, the
        ``ec_files``/``ec_groups`` rows) and drops the replication target
        of every member to 1; the parity payloads are then pushed to the
        datanodes through the ordinary write path.
        """
        if k < 2:
            raise FileSystemError("erasure coding needs k >= 2")
        nn = self._cluster.any_namenode()
        parity_targets: list[tuple[int, int, bytes]] = []  # (dn, block, data)

        def fn(tx: DALTransaction) -> int:
            resolved = nn.resolver.resolve(tx, path,
                                           lock_last=LockMode.EXCLUSIVE,
                                           plan=plan)
            row = resolved.last
            if row is None:
                raise FileNotFoundError_(path)
            if row["is_dir"]:
                raise IsDirectoryError_(path)
            if row["under_construction"]:
                raise FileSystemError(f"{path} is still under construction")
            inode_id = row["id"]
            if tx.read("ec_files", (inode_id,)) is not None:
                raise FileSystemError(f"{path} is already erasure coded")
            data_blocks = sorted(
                (b for b in tx.ppis("blocks", {"inode_id": inode_id})
                 if b["idx"] >= 0),
                key=lambda b: b["idx"])
            if not data_blocks:
                raise FileSystemError(f"{path} has no blocks to encode")
            replicas = tx.ppis("replicas", {"inode_id": inode_id})
            holders: dict[int, set[int]] = {}
            for replica in replicas:
                holders.setdefault(replica["block_id"], set()).add(
                    replica["dn_id"])
            tx.insert("ec_files", {"inode_id": inode_id, "k": k})
            stripes = 0
            for group_idx in range(0, len(data_blocks), k):
                stripe = data_blocks[group_idx: group_idx + k]
                stripe_no = group_idx // k
                payloads = [
                    self._read_block_payload(b["block_id"],
                                             holders.get(b["block_id"], ()))
                    for b in stripe
                ]
                parity = xor_blocks(payloads)
                parity_id = nn.block_alloc.next()
                target = self._pick_parity_target(
                    set().union(*(holders.get(b["block_id"], set())
                                  for b in stripe)))
                tx.insert("blocks", {
                    "inode_id": inode_id, "block_id": parity_id,
                    "idx": -(stripe_no + 1), "size": len(parity),
                    "gen_stamp": nn.gen_stamp_alloc.next(),
                    "state": blk.BLOCK_STATE_COMPLETE})
                tx.insert("block_lookup", {"block_id": parity_id,
                                           "inode_id": inode_id})
                tx.insert("ec_groups", {"inode_id": inode_id,
                                        "group_idx": stripe_no,
                                        "parity_block_id": parity_id})
                tx.insert("ruc", {"inode_id": inode_id,
                                  "block_id": parity_id, "dn_id": target})
                parity_targets.append((target, parity_id, parity))
                stripes += 1
            # the erasure-coding payoff: single-replica data blocks; the
            # inode now has EC rows (and parity blocks) for a delete to find
            pk = (row["part_key"], row["parent_id"], row["name"])
            tx.update("inodes", pk, {
                "replication": 1,
                "sub_tables": (row["sub_tables"] | fs_schema.SUB_BLOCKS
                               | fs_schema.SUB_EC)})
            for block in data_blocks:
                blk.check_replication(tx, inode_id, block["block_id"], 1)
            return stripes

        hint, plan = nn.resolver.tx_hint(path, file_rows=True)
        stripes = nn._fs_op("ec_convert", fn, hint=hint)
        # push parity payloads through the normal write path
        for dn_id, block_id, payload in parity_targets:
            dn = self._cluster.datanode(dn_id)
            if dn is not None and dn.alive:
                dn.store_block(block_id, payload)
                nn.block_received(dn_id, block_id, len(payload))
        self.files_converted += 1
        return stripes

    # -- reconstruction -----------------------------------------------------------------

    def repair_round(self) -> int:
        """Reconstruct erasure-coded blocks that lost every replica.

        Returns the number of blocks rebuilt. Plain re-replication (the
        ReplicationManager) handles blocks that still have a live source;
        this pass covers the zero-survivor case using the stripe.
        """
        nn = self._cluster.any_namenode()

        def find(tx: DALTransaction) -> list[dict]:
            ec_inodes = {r["inode_id"]: r["k"]
                         for r in tx.full_scan("ec_files")}
            missing = []
            for urb in tx.full_scan("urb"):
                if urb["inode_id"] not in ec_inodes:
                    continue
                live = tx.ppis(
                    "replicas", {"inode_id": urb["inode_id"]},
                    predicate=lambda r, b=urb["block_id"]:
                        r["block_id"] == b)
                if not live:
                    missing.append({"inode_id": urb["inode_id"],
                                    "block_id": urb["block_id"],
                                    "k": ec_inodes[urb["inode_id"]]})
            return missing

        rebuilt = 0
        for item in nn._fs_op("ec_scan", find):
            if self._reconstruct(item["inode_id"], item["block_id"],
                                 item["k"]):
                rebuilt += 1
        self.blocks_reconstructed += rebuilt
        return rebuilt

    def _reconstruct(self, inode_id: int, block_id: int, k: int) -> bool:
        nn = self._cluster.any_namenode()

        def load(tx: DALTransaction) -> Optional[dict]:
            stripe = self._find_stripe(tx, inode_id, block_id, k)
            if stripe is None:
                return None
            members = [b for b in stripe["blocks"]
                       if b["block_id"] != block_id]
            replicas = tx.ppis("replicas", {"inode_id": inode_id})
            holders: dict[int, set[int]] = {}
            for replica in replicas:
                holders.setdefault(replica["block_id"], set()).add(
                    replica["dn_id"])
            target_meta = next((b for b in stripe["blocks"]
                                if b["block_id"] == block_id), None)
            return {"members": members, "holders": holders,
                    "size": target_meta["size"] if target_meta else 0}

        info = nn._fs_op("ec_load", load,
                         hint=("blocks", {"inode_id": inode_id}))
        if info is None:
            return False
        payloads = []
        for member in info["members"]:
            data = self._read_block_payload(
                member["block_id"], info["holders"].get(member["block_id"],
                                                        ()))
            if data is None:
                return False  # two losses in one stripe: XOR cannot help
            payloads.append(data)
        rebuilt = xor_blocks(payloads)[: info["size"]]
        alive = nn.alive_datanode_ids()
        if not alive:
            return False
        target = alive[block_id % len(alive)]
        dn = self._cluster.datanode(target)
        if dn is None:
            return False
        dn.store_block(block_id, rebuilt)
        nn.block_received(target, block_id, len(rebuilt))
        return True

    # -- helpers -----------------------------------------------------------------------------

    def _find_stripe(self, tx: DALTransaction, inode_id: int, block_id: int,
                     k: int) -> Optional[dict]:
        """All blocks (data + parity) of the stripe containing block_id."""
        all_blocks = tx.ppis("blocks", {"inode_id": inode_id})
        data = sorted((b for b in all_blocks if b["idx"] >= 0),
                      key=lambda b: b["idx"])
        groups = {g["group_idx"]: g["parity_block_id"]
                  for g in tx.ppis("ec_groups", {"inode_id": inode_id})}
        for stripe_no in range((len(data) + k - 1) // k):
            members = data[stripe_no * k: (stripe_no + 1) * k]
            parity_id = groups.get(stripe_no)
            ids = {b["block_id"] for b in members} | {parity_id}
            if block_id in ids:
                parity_meta = next((b for b in all_blocks
                                    if b["block_id"] == parity_id), None)
                stripe_blocks = list(members)
                if parity_meta is not None:
                    stripe_blocks.append(parity_meta)
                return {"group_idx": stripe_no, "blocks": stripe_blocks}
        return None

    def _read_block_payload(self, block_id: int,
                            holder_ids) -> Optional[bytes]:
        for dn_id in holder_ids:
            dn = self._cluster.datanode(dn_id)
            if dn is not None and dn.alive:
                data = dn.read_block(block_id)
                if data is not None:
                    return data
        return None

    def _pick_parity_target(self, exclude: set[int]) -> int:
        nn = self._cluster.any_namenode()
        alive = nn.alive_datanode_ids()
        candidates = [dn for dn in alive if dn not in exclude] or alive
        if not candidates:
            raise FileSystemError("no live datanode for parity placement")
        return nn._rng.choice(candidates)
