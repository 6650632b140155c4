"""HDFS namenodes: active/standby roles over one shared journal.

The active namenode serves all client operations and logs every mutation
to the quorum journal *after* releasing the namesystem lock (§2.1 — this
is why HDFS failover can lose acknowledged operations). The standby tails
the journal, applies edits to its own in-heap replica and periodically
checkpoints. Datanodes send heartbeats, blockReceived and block reports
to *both* namenodes, keeping the standby's block map hot.

Promotion replays any outstanding durable edits, resumes the id counters
above every id seen, and flips the role — the (simulated) minutes HDFS
needs for this at scale are modelled in :mod:`repro.perfmodel.failover`.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import NameNodeUnavailableError, StandbyError
from repro.hdfs.editlog import QuorumJournalManager
from repro.hdfs.namesystem import FSNamesystem
from repro.hopsfs.types import BlockLocation, FileStatus
from repro.util.clock import Clock

#: seconds without a heartbeat before a datanode is considered dead
DN_HEARTBEAT_TIMEOUT = 10.0


class HDFSNameNode:
    def __init__(self, nn_id: int, journal: QuorumJournalManager,
                 clock: Clock, role: str = "standby") -> None:
        self.nn_id = nn_id
        self.journal = journal
        self.clock = clock
        self.role = role
        self.alive = True
        self.ns = FSNamesystem(clock=clock,
                               edit_sink=self._edit_sink if role == "active"
                               else None)
        self._applied_txid = 0
        self._rng = random.Random(nn_id)
        self._dn_heartbeats: dict[int, float] = {}
        self.checkpoints_taken = 0

    # -- role & liveness ---------------------------------------------------------------

    def _check_serving(self) -> None:
        if not self.alive:
            raise NameNodeUnavailableError(f"namenode {self.nn_id} is down")
        if self.role != "active":
            raise StandbyError(f"namenode {self.nn_id} is standby")

    def kill(self) -> None:
        self.alive = False

    def _edit_sink(self, op: str, args: tuple) -> None:
        """Log one mutation to the journal quorum (outside the ns lock)."""
        try:
            entry = self.journal.log(op, args)
            self._applied_txid = entry.txid
        except IOError:
            # quorum lost: HDFS namenodes shut down (§7.6.2)
            self.alive = False
            raise NameNodeUnavailableError(
                f"namenode {self.nn_id}: journal quorum lost") from None

    # -- standby duties -----------------------------------------------------------------

    def tail_edits(self) -> int:
        """Apply durable edits we have not seen yet; returns how many."""
        if not self.alive or self.role == "active":
            return 0
        applied = 0
        for entry in self.journal.read_from(self._applied_txid + 1):
            self.ns.apply_edit(entry)
            self._applied_txid = entry.txid
            applied += 1
        return applied

    def checkpoint(self) -> None:
        """Fold applied edits into the fsimage; truncate the journal."""
        if self.role != "standby" or not self.alive:
            return
        self.tail_edits()
        self.journal.truncate_before(self._applied_txid + 1)
        self.checkpoints_taken += 1

    def promote(self) -> None:
        """Become the active namenode (failover)."""
        if not self.alive:
            raise NameNodeUnavailableError(f"namenode {self.nn_id} is down")
        self.tail_edits()
        self._resume_counters()
        self.role = "active"
        self.ns._edit_sink = self._edit_sink

    def _resume_counters(self) -> None:
        import itertools

        max_inode = max(self.ns._by_id, default=1)
        self.ns._inode_ids = itertools.count(max_inode + 1)
        max_block = max(self.ns.blocks, default=0)
        self.ns._block_ids = itertools.count(max_block + 1)
        max_gs = max((b.gen_stamp for b in self.ns.blocks.values()),
                     default=1000)
        self.ns._gen_stamps = itertools.count(max_gs + 1)

    # -- datanode soft state ---------------------------------------------------------------

    def datanode_heartbeat(self, dn_id: int) -> None:
        self._dn_heartbeats[dn_id] = self.clock.now()

    def alive_datanode_ids(self) -> list[int]:
        deadline = self.clock.now() - DN_HEARTBEAT_TIMEOUT
        return sorted(dn_id for dn_id, t in self._dn_heartbeats.items()
                      if t >= deadline)

    def forget_datanode(self, dn_id: int) -> None:
        self._dn_heartbeats.pop(dn_id, None)

    # -- client operations (role-checked passthrough) ------------------------------------------

    def mkdirs(self, path, perm=0o755, owner="hdfs", group="hdfs"):
        self._check_serving()
        return self.ns.mkdirs(path, perm, owner, group)

    def create(self, path, perm=0o644, owner="hdfs", group="hdfs",
               client="client", replication=None, create_parents=True,
               overwrite=False) -> FileStatus:
        self._check_serving()
        try:
            return self.ns.create(path, perm, owner, group, client,
                                  replication, overwrite=overwrite)
        except Exception as exc:
            from repro.errors import FileNotFoundError_

            if isinstance(exc, FileNotFoundError_) and create_parents:
                parent = path.rsplit("/", 1)[0]
                if parent:
                    self.ns.mkdirs(parent, owner=owner, group=group)
                    return self.ns.create(path, perm, owner, group, client,
                                          replication, overwrite=overwrite)
            raise

    def add_block(self, path: str, client: str) -> BlockLocation:
        self._check_serving()
        node = self.ns._lookup(path)
        replication = node.replication if node is not None else 3
        alive = self.alive_datanode_ids()
        targets = (self._rng.sample(alive, min(replication, len(alive)))
                   if alive else [])
        return self.ns.add_block(path, client, targets)

    def block_received(self, dn_id: int, block_id: int, size: int) -> None:
        # accepted by active AND standby (datanodes talk to both, §2.1)
        if self.alive:
            self.ns.block_received(dn_id, block_id, size)

    def complete(self, path: str, client: str) -> bool:
        self._check_serving()
        return self.ns.complete(path, client)

    def append_file(self, path: str, client: str):
        self._check_serving()
        return self.ns.append_file(path, client)

    def get_file_info(self, path: str) -> Optional[FileStatus]:
        self._check_serving()
        return self.ns.get_file_info(path)

    def list_status(self, path: str):
        self._check_serving()
        return self.ns.list_status(path)

    def get_block_locations(self, path: str):
        self._check_serving()
        return self.ns.get_block_locations(path)

    def content_summary(self, path: str):
        self._check_serving()
        return self.ns.content_summary(path)

    def delete(self, path: str, recursive: bool = False) -> bool:
        self._check_serving()
        return self.ns.delete(path, recursive)

    def rename(self, src: str, dst: str) -> bool:
        self._check_serving()
        return self.ns.rename(src, dst)

    def set_permission(self, path: str, perm: int) -> None:
        self._check_serving()
        self.ns.set_permission(path, perm)

    def set_owner(self, path: str, owner: str, group: str) -> None:
        self._check_serving()
        self.ns.set_owner(path, owner, group)

    def set_replication(self, path: str, replication: int) -> bool:
        self._check_serving()
        return self.ns.set_replication(path, replication)

    def set_quota(self, path: str, ns_quota, ds_quota) -> None:
        self._check_serving()
        self.ns.set_quota(path, ns_quota, ds_quota)

    def renew_lease(self, client: str) -> int:
        self._check_serving()
        return 0  # lease renewal is a namenode-memory no-op in the baseline

    def process_block_report(self, dn_id: int, report) -> dict:
        if not self.alive:
            raise NameNodeUnavailableError(f"namenode {self.nn_id} is down")
        return self.ns.process_block_report(dn_id, report)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"HDFSNameNode(id={self.nn_id}, {self.role}, {state})"
