"""HDFS cluster harness (the paper's 5-server HA deployment, §7.1).

One active namenode, one standby, three journal nodes, a three-node
failover-coordination ensemble, plus datanodes (shared implementation
with HopsFS). Deterministic like the HopsFS harness: heartbeats, standby
tailing/checkpointing and failover detection advance on :meth:`tick`.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.hdfs.client import HDFSClient
from repro.hdfs.coordinator import FailoverCoordinator
from repro.hdfs.editlog import JournalNode, QuorumJournalManager
from repro.hdfs.namenode import HDFSNameNode
from repro.hopsfs.datanode import DataNode
from repro.util.clock import Clock, SystemClock


class HDFSCluster:
    #: journal nodes in the quorum (the paper's deployment, §7.1)
    NUM_JOURNAL_NODES = 3
    #: block size in bytes
    BLOCK_SIZE = 128 * 1024 * 1024

    def __init__(self, num_datanodes: int = 3,
                 clock: Optional[Clock] = None) -> None:
        self.config_clock = clock or SystemClock()
        self.journal_nodes = [JournalNode(i)
                              for i in range(self.NUM_JOURNAL_NODES)]
        self.journal = QuorumJournalManager(self.journal_nodes)
        self.coordinator = FailoverCoordinator(self.config_clock)
        self._nn_ids = itertools.count(1)
        self.active = HDFSNameNode(next(self._nn_ids), self.journal,
                                   self.config_clock, role="active")
        self.standby = HDFSNameNode(next(self._nn_ids), self.journal,
                                    self.config_clock, role="standby")
        self.coordinator.renew(self.active.nn_id)
        self.datanodes: list[DataNode] = []
        self._dn_ids = itertools.count(1)
        for _ in range(num_datanodes):
            self.add_datanode()

    # -- membership --------------------------------------------------------------------

    def add_datanode(self) -> DataNode:
        dn = DataNode(next(self._dn_ids))
        self.datanodes.append(dn)
        for nn in self._namenodes():
            if nn.alive:
                nn.datanode_heartbeat(dn.dn_id)
        return dn

    def datanode(self, dn_id: int) -> Optional[DataNode]:
        for dn in self.datanodes:
            if dn.dn_id == dn_id:
                return dn
        return None

    def _namenodes(self) -> list[HDFSNameNode]:
        return [self.active, self.standby]

    def active_namenode(self) -> Optional[HDFSNameNode]:
        for nn in self._namenodes():
            if nn.alive and nn.role == "active":
                return nn
        return None

    def active_or_any(self) -> Optional[HDFSNameNode]:
        active = self.active_namenode()
        if active is not None:
            return active
        live = [nn for nn in self._namenodes() if nn.alive]
        return live[0] if live else None

    def client(self, name: str = "client") -> HDFSClient:
        return HDFSClient(self, name=name)

    # -- data-path fan-out ----------------------------------------------------------------

    def notify_block_received(self, dn_id: int, block_id: int,
                              size: int) -> None:
        """Datanodes report received blocks to both namenodes (§2.1)."""
        for nn in self._namenodes():
            if nn.alive:
                nn.block_received(dn_id, block_id, size)

    def send_block_report(self, dn_id: int,
                          namenode: Optional[HDFSNameNode] = None) -> dict:
        dn = self.datanode(dn_id)
        if dn is None or not dn.alive:
            return {}
        report = dn.block_report()
        result: dict = {}
        targets = [namenode] if namenode is not None else [
            nn for nn in self._namenodes() if nn.alive]
        for nn in targets:
            result = nn.process_block_report(dn_id, report)
        for block_id in result.get("orphan_block_ids", []):
            dn.delete_block(block_id)
        return result

    # -- failure handling ---------------------------------------------------------------------

    def kill_active_namenode(self) -> None:
        active = self.active_namenode()
        if active is not None:
            active.kill()

    def kill_namenode(self, nn: HDFSNameNode) -> None:
        nn.kill()

    def kill_journal_node(self, jn_id: int) -> None:
        self.journal_nodes[jn_id].kill()

    def restart_journal_node(self, jn_id: int) -> None:
        self.journal_nodes[jn_id].restart()

    def kill_datanode(self, dn_id: int, lose_data: bool = False) -> None:
        dn = self.datanode(dn_id)
        if dn is not None:
            dn.kill(lose_data=lose_data)

    def restart_standby(self) -> HDFSNameNode:
        """Bring up a fresh standby (after a failover consumed the old one)."""
        nn = HDFSNameNode(next(self._nn_ids), self.journal,
                          self.config_clock, role="standby")
        # a fresh standby loads the fsimage + edits: replay the journal
        nn.tail_edits()
        for dn in self.datanodes:
            if dn.alive:
                nn.datanode_heartbeat(dn.dn_id)
                nn.process_block_report(dn.dn_id, dn.block_report())
        if self.standby.alive and self.standby.role == "standby":
            self.standby.kill()
        self.standby = nn
        return nn

    # -- periodic work -----------------------------------------------------------------------

    def tick_failover(self) -> bool:
        """One coordinator round; returns True if a failover happened.

        The active renews its lease; if it is dead and the lease expired,
        the surviving namenode takes over and is promoted.
        """
        active = self.active_namenode()
        if active is not None:
            self.coordinator.renew(active.nn_id)
            return False
        for nn in self._namenodes():
            if nn.alive and nn.role == "standby":
                if self.coordinator.try_takeover(nn.nn_id):
                    nn.promote()
                    return True
        return False

    def tick(self) -> None:
        """Heartbeats, standby tailing, failover detection."""
        for dn in self.datanodes:
            if not dn.alive:
                continue
            for nn in self._namenodes():
                if nn.alive:
                    nn.datanode_heartbeat(dn.dn_id)
        if self.standby.alive and self.standby.role == "standby":
            self.standby.tail_edits()
        self.tick_failover()

    def checkpoint(self) -> None:
        if self.standby.alive and self.standby.role == "standby":
            self.standby.checkpoint()
