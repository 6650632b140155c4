"""The replication manager (leader-namenode housekeeping, paper §4.1).

Scans the block life-cycle tables and turns their state into datanode
commands:

* under-replicated blocks (``urb``) with no pending work become
  :class:`ReplicateCommand`s, recorded in ``prb``;
* invalidated replicas (``inv``) become :class:`InvalidateCommand`s;
* stale ``prb`` entries (target datanode died or never reported) are
  dropped so the work is retried;
* replicas on dead datanodes are removed from the replica map and their
  blocks re-checked for under-replication.

Housekeeping runs on the *leader* namenode only; scans over these small
work tables are the one place full scans are acceptable (client-path
operations never use them).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.dal.driver import DALTransaction
from repro.hopsfs import blocks as blk
from repro.hopsfs.datanode import Command, InvalidateCommand, ReplicateCommand
from repro.ndb.locks import LockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.hopsfs.namenode import NameNode


#: seconds a scheduled replication may stay pending before it is retried
PENDING_TIMEOUT = 30.0


class ReplicationManager:
    def __init__(self, namenode: "NameNode") -> None:
        self._nn = namenode
        self.commands_issued = 0

    def run_round(self) -> list[Command]:
        """One housekeeping pass; returns commands to dispatch.

        Invalidations drain *before* re-replication is scheduled, and a
        (block, datanode) pair invalidated this round is excluded as a
        replication target — otherwise a freshly copied replica could be
        deleted by an invalidation queued for the old corrupt copy.
        """
        commands: list[Command] = []
        commands.extend(self._expire_stale_pending())
        invalidations = self._drain_invalidations()
        commands.extend(invalidations)
        avoid = {(c.block_id, c.target_dn) for c in invalidations}
        commands.extend(self._schedule_replications(avoid))
        self.commands_issued += len(commands)
        return commands

    # -- dead datanodes ------------------------------------------------------------

    def handle_dead_datanode(self, dn_id: int) -> int:
        """Remove a dead datanode's replicas; queue re-replication.

        Returns the number of replicas removed. Uses an index scan over
        the replica table — a housekeeping-path operation.
        """
        nn = self._nn

        def find(tx: DALTransaction) -> list[dict]:
            # hfs: allow(HFS101, reason=datanode-failure recovery; replicas are keyed by inode, not datanode)
            return tx.index_scan("replicas", "by_dn", (dn_id,))

        replicas = nn._fs_op("dn_failure_scan", find)
        removed = 0
        for replica in replicas:
            def fix(tx: DALTransaction, replica=replica) -> bool:
                inode_id = replica["inode_id"]
                row = nn._lock_inode_by_id(tx, inode_id)
                if row is None:
                    return False
                existing = tx.read("replicas", (inode_id, replica["block_id"],
                                                dn_id))
                if existing is None:
                    return False
                tx.delete("replicas", (inode_id, replica["block_id"], dn_id))
                blk.check_replication(tx, inode_id, replica["block_id"],
                                      row["replication"])
                return True

            if nn._fs_op("dn_failure_fix", fix):
                removed += 1
        # drop RUC entries pointing at the dead datanode
        def drop_ruc(tx: DALTransaction) -> None:
            # hfs: allow(HFS101, reason=failure-recovery sweep; RUC rows are keyed by inode, not datanode)
            stale = sorted(tx.full_scan("ruc",
                                        predicate=lambda r: r["dn_id"] == dn_id),
                           key=lambda r: (r["inode_id"], r["block_id"]))
            for row in stale:
                tx.delete("ruc", (row["inode_id"], row["block_id"], dn_id),
                          must_exist=False)

        nn._fs_op("dn_failure_ruc", drop_ruc)
        return removed

    # -- decommissioning ---------------------------------------------------------------

    def drain_decommissioning(self, dn_id: int) -> int:
        """Queue re-replication for blocks whose coverage depends on a
        decommissioning datanode. Returns blocks queued."""
        nn = self._nn

        def find(tx: DALTransaction) -> list[tuple[int, int]]:
            # hfs: allow(HFS101, reason=decommission drain; replicas are keyed by inode, not datanode)
            rows = tx.index_scan("replicas", "by_dn", (dn_id,))
            return sorted({(r["inode_id"], r["block_id"]) for r in rows})

        # one short transaction per block: inode pks don't sort like ids,
        # so locking many id-resolved inodes in one transaction cannot
        # keep the global pk acquisition order (§3.4)
        queued = 0
        for inode_id, block_id in nn._fs_op("decommission_scan", find):
            def queue_one(tx: DALTransaction, inode_id=inode_id,
                          block_id=block_id) -> bool:
                row = nn._lock_inode_by_id(tx, inode_id)
                if row is None:
                    return False
                others = tx.ppis(
                    "replicas", {"inode_id": inode_id},
                    predicate=lambda r, b=block_id: (
                        r["block_id"] == b
                        and r["dn_id"] not in nn.decommissioning))
                wanted = self._achievable(row["replication"])
                if (len(others) < wanted
                        and tx.read("urb", (inode_id, block_id)) is None):
                    tx.insert("urb", {"inode_id": inode_id,
                                      "block_id": block_id,
                                      "level": wanted - len(others),
                                      "wanted": wanted})
                    return True
                return False

            if nn._fs_op("decommission_queue", queue_one):
                queued += 1
        return queued

    def decommission_complete(self, dn_id: int) -> bool:
        """True once no block depends on the draining datanode anymore."""
        nn = self._nn

        def find(tx: DALTransaction) -> list[tuple[int, int]]:
            # hfs: allow(HFS101, reason=decommission progress check; replicas are keyed by inode, not datanode)
            rows = tx.index_scan("replicas", "by_dn", (dn_id,))
            return sorted({(r["inode_id"], r["block_id"]) for r in rows})

        # per-block transactions for the same reason as the drain above
        for inode_id, block_id in nn._fs_op("decommission_scan", find):
            def check_one(tx: DALTransaction, inode_id=inode_id,
                          block_id=block_id) -> bool:
                row = nn._lock_inode_by_id(tx, inode_id,
                                           lock=LockMode.SHARED)
                if row is None:
                    return True
                others = tx.ppis(
                    "replicas", {"inode_id": inode_id},
                    predicate=lambda r, b=block_id: (
                        r["block_id"] == b
                        and r["dn_id"] not in nn.decommissioning))
                return len(others) >= self._achievable(row["replication"])

            if not nn._fs_op("decommission_check", check_one):
                return False
        return True

    def _achievable(self, replication: int) -> int:
        """The replica count a block can actually reach right now.

        A cluster with fewer placeable datanodes than the replication
        factor can never fully satisfy it; demanding the impossible
        would stall decommissioning forever (the draining node can
        only retire once every block is as safe as the remaining
        cluster allows). Never below 1: the last copy of a block must
        never live only on the draining node.
        """
        placeable = self._nn.alive_datanode_ids(
            include_decommissioning=False)
        return max(1, min(replication, len(placeable)))

    # -- internals ------------------------------------------------------------------

    def _expire_stale_pending(self) -> list[Command]:
        nn = self._nn
        deadline = nn.clock.now() - PENDING_TIMEOUT
        alive = set(nn.alive_datanode_ids())

        def fn(tx: DALTransaction) -> None:
            # hfs: allow(HFS101, reason=leader-only housekeeping; PRB staleness is a cross-table property)
            stale = sorted(tx.full_scan(
                "prb",
                predicate=lambda r: (r["since"] < deadline
                                     or r["target_dn"] not in alive)),
                key=lambda r: (r["inode_id"], r["block_id"]))
            for row in stale:
                tx.delete("prb", (row["inode_id"], row["block_id"]),
                          must_exist=False)

        nn._fs_op("prb_expire", fn)
        return []

    def _schedule_replications(self, avoid: Optional[set] = None
                               ) -> list[Command]:
        nn = self._nn
        alive = nn.alive_datanode_ids()
        placeable = nn.alive_datanode_ids(include_decommissioning=False)
        decommissioning = nn.decommissioning
        avoid = avoid or set()
        if not alive:
            return []
        commands: list[Command] = []

        def fn(tx: DALTransaction) -> None:
            # hfs: allow(HFS101, reason=leader-only replication scheduler sweep (§6.2))
            under = sorted(tx.full_scan("urb"),
                           key=lambda r: (r["inode_id"], r["block_id"]))
            for row in under:
                inode_id, block_id = row["inode_id"], row["block_id"]
                if tx.read("prb", (inode_id, block_id)) is not None:
                    continue  # work already in flight
                replicas = tx.ppis(
                    "replicas", {"inode_id": inode_id},
                    predicate=lambda r, b=block_id: r["block_id"] == b)
                # replicas on decommissioning datanodes don't count toward
                # the target: they are about to disappear
                effective = [r for r in replicas
                             if r["dn_id"] not in decommissioning]
                if len(effective) >= row["wanted"]:
                    # replication satisfied since the URB row was written
                    tx.delete("urb", (inode_id, block_id), must_exist=False)
                    continue
                if len(effective) >= max(1, min(row["wanted"],
                                                len(placeable))):
                    # as replicated as current capacity allows; keep the
                    # row so the block is topped up if a node joins later
                    continue
                sources = [r["dn_id"] for r in replicas if r["dn_id"] in alive]
                if not sources:
                    continue  # no live source; block currently missing
                holders = {r["dn_id"] for r in replicas}
                targets = [dn for dn in placeable
                           if dn not in holders
                           and (block_id, dn) not in avoid]
                if not targets:
                    continue
                target = nn._rng.choice(targets)
                tx.insert("prb", {"inode_id": inode_id, "block_id": block_id,
                                  "target_dn": target,
                                  "since": nn.clock.now()})
                commands.append(ReplicateCommand(
                    block_id=block_id, inode_id=inode_id,
                    source_dn=nn._rng.choice(sources), target_dn=target))

        nn._fs_op("replication_scan", fn)
        return commands

    def _drain_invalidations(self) -> list[Command]:
        nn = self._nn
        commands: list[Command] = []

        def fn(tx: DALTransaction) -> None:
            # hfs: allow(HFS101, reason=leader-only invalidation drain sweep)
            rows = sorted(tx.full_scan("inv"),
                          key=lambda r: (r["inode_id"], r["block_id"],
                                         r["dn_id"]))
            for row in rows:
                commands.append(InvalidateCommand(block_id=row["block_id"],
                                                  target_dn=row["dn_id"]))
                # er before inv: check_replication inserts er first, so
                # draining in the same order keeps one global order (§3.4)
                tx.delete("er", (row["inode_id"], row["block_id"],
                                 row["dn_id"]), must_exist=False)
                tx.delete("inv", (row["inode_id"], row["block_id"],
                                  row["dn_id"]), must_exist=False)

        nn._fs_op("invalidation_scan", fn)
        return commands
