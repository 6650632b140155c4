"""HopsFS cluster harness: wires namenodes, datanodes and the database.

The harness is deterministic: nothing runs on background threads unless a
test creates them. Heartbeats, leader election, the replication monitor,
quota folding and lease recovery advance when :meth:`tick` is called,
which keeps failure-injection tests reproducible.
"""

from __future__ import annotations

from typing import Optional

from repro.dal.driver import DALDriver, DALTransaction
from repro.dal.ndb_driver import NDBDriver
from repro.hopsfs import schema as fs_schema
from repro.hopsfs.blockreport import BlockReportProcessor
from repro.hopsfs.client import DFSClient, NamenodeSelectionPolicy
from repro.hopsfs.config import HopsFSConfig
from repro.hopsfs.datanode import (
    DataNode,
    InvalidateCommand,
    ReplicateCommand,
)
from repro.hopsfs.namenode import NameNode
from repro.hopsfs.quota import QuotaManager
from repro.hopsfs.replication import ReplicationManager
from repro.ndb.config import NDBConfig
from repro.errors import NameNodeUnavailableError


class HopsFSCluster:
    def __init__(self, num_namenodes: int = 2, num_datanodes: int = 3,
                 config: Optional[HopsFSConfig] = None,
                 driver: Optional[DALDriver] = None,
                 ndb_config: Optional[NDBConfig] = None) -> None:
        self.config = config or HopsFSConfig()
        self.driver = driver if driver is not None else NDBDriver(
            config=ndb_config or NDBConfig())
        self.namenodes: list[NameNode] = []
        self.datanodes: list[DataNode] = []
        self._format()
        from repro.hopsfs.erasure import ErasureCodingManager

        self.ec = ErasureCodingManager(self)
        for _ in range(num_namenodes):
            self.add_namenode()
        for _ in range(num_datanodes):
            self.add_datanode()
        self.tick_heartbeats()

    # -- formatting --------------------------------------------------------------------

    def _format(self) -> None:
        """Create the schema and seed the sequence counters."""
        fs_schema.create_all_tables(self.driver)
        session = self.driver.session()

        def fn(tx: DALTransaction) -> None:
            for name, start in (("inodes", fs_schema.ROOT_ID + 1),
                                ("blocks", 1), ("genstamps", 1000),
                                ("namenodes", 1), ("datanodes", 1)):
                tx.insert("sequences", {"name": name, "next_value": start})

        session.run(fn)

    # -- membership ---------------------------------------------------------------------

    def add_namenode(self) -> NameNode:
        nn_id = self._next_id("namenodes")
        nn = NameNode(self.driver, self.config, nn_id)
        nn.start()
        # seed datanode liveness so new namenodes can place blocks at once
        for dn in self.datanodes:
            if dn.alive:
                nn.datanode_heartbeat(dn.dn_id)
        self.namenodes.append(nn)
        return nn

    def add_datanode(self) -> DataNode:
        dn_id = self._next_id("datanodes")
        dn = DataNode(dn_id)
        self.datanodes.append(dn)
        session = self.driver.session()

        def fn(tx: DALTransaction) -> None:
            tx.write("datanodes", {"dn_id": dn_id, "state": "live",
                                   "last_heartbeat": self.config.clock.now(),
                                   "capacity": 0})

        session.run(fn, hint=("datanodes", {"dn_id": dn_id}))
        for nn in self.namenodes:
            if nn.alive:
                nn.datanode_heartbeat(dn_id)
        return dn

    def _next_id(self, sequence: str) -> int:
        session = self.driver.session()

        def fn(tx: DALTransaction) -> int:
            from repro.ndb.locks import LockMode

            row = tx.read("sequences", (sequence,), lock=LockMode.EXCLUSIVE)
            tx.update("sequences", (sequence,),
                      {"next_value": row["next_value"] + 1})
            return row["next_value"]

        return session.run(fn, hint=("sequences", {"name": sequence}))

    # -- accessors -----------------------------------------------------------------------

    def live_namenodes(self) -> list[NameNode]:
        return [nn for nn in self.namenodes if nn.alive]

    def leader(self) -> Optional[NameNode]:
        for nn in self.live_namenodes():
            if nn.is_leader():
                return nn
        return None

    def any_namenode(self) -> NameNode:
        live = self.live_namenodes()
        if not live:
            raise NameNodeUnavailableError("no live namenodes")
        return live[0]

    def datanode(self, dn_id: int) -> Optional[DataNode]:
        for dn in self.datanodes:
            if dn.dn_id == dn_id:
                return dn
        return None

    def client(self, name: str = "client",
               policy: NamenodeSelectionPolicy = NamenodeSelectionPolicy.STICKY,
               seed: Optional[int] = None) -> DFSClient:
        return DFSClient(self, name=name, policy=policy, seed=seed)

    # -- failure injection ---------------------------------------------------------------

    def kill_namenode(self, nn: NameNode) -> None:
        nn.kill()

    def restart_namenode(self) -> NameNode:
        """Start a fresh namenode incarnation (new id, cold caches)."""
        return self.add_namenode()

    def kill_datanode(self, dn_id: int, lose_data: bool = False) -> None:
        dn = self.datanode(dn_id)
        if dn is not None:
            dn.kill(lose_data=lose_data)

    # -- decommissioning ---------------------------------------------------------------

    def start_decommission(self, dn_id: int) -> int:
        """Begin draining a datanode: no new replicas land on it and its
        existing replicas are copied elsewhere. Returns blocks queued."""
        for nn in self.live_namenodes():
            nn.decommissioning.add(dn_id)
        leader = self.leader() or self.any_namenode()
        return ReplicationManager(leader).drain_decommissioning(dn_id)

    def decommission_complete(self, dn_id: int) -> bool:
        leader = self.leader() or self.any_namenode()
        return ReplicationManager(leader).decommission_complete(dn_id)

    def finish_decommission(self, dn_id: int) -> None:
        """Retire a fully drained datanode (refuses if blocks still
        depend on it)."""
        if not self.decommission_complete(dn_id):
            raise RuntimeError(
                f"datanode {dn_id} still holds the only copy of some blocks")
        self.kill_datanode(dn_id)
        leader = self.leader() or self.any_namenode()
        for nn in self.live_namenodes():
            nn.forget_datanode(dn_id)
            nn.decommissioning.discard(dn_id)
        ReplicationManager(leader).handle_dead_datanode(dn_id)

    # -- periodic work ---------------------------------------------------------------------

    def tick_heartbeats(self) -> None:
        """One heartbeat round: datanodes → namenodes, namenode elections."""
        for dn in self.datanodes:
            if not dn.alive:
                continue
            for nn in self.live_namenodes():
                nn.datanode_heartbeat(dn.dn_id)
        for nn in self.live_namenodes():
            nn.heartbeat()

    def tick_housekeeping(self) -> int:
        """Leader housekeeping: replication, quota folding, lease recovery.

        Returns the number of datanode commands dispatched.
        """
        leader = self.leader()
        if leader is None:
            return 0
        manager = ReplicationManager(leader)
        # handle datanodes that stopped heartbeating
        for dn in self.datanodes:
            if dn.alive:
                continue
            for nn in self.live_namenodes():
                nn.forget_datanode(dn.dn_id)
            manager.handle_dead_datanode(dn.dn_id)
        commands = manager.run_round()
        self._dispatch_commands(commands)
        QuotaManager(self.driver.session()).apply_pending()
        leader.recover_expired_leases()
        self.ec.repair_round()
        return len(commands)

    def tick(self) -> int:
        """Heartbeats plus housekeeping (one full maintenance round)."""
        self.tick_heartbeats()
        return self.tick_housekeeping()

    def _dispatch_commands(self, commands) -> None:
        for command in commands:
            target = self.datanode(command.target_dn)
            if target is None or not target.alive:
                continue
            if isinstance(command, InvalidateCommand):
                target.delete_block(command.block_id)
            elif isinstance(command, ReplicateCommand):
                source = self.datanode(command.source_dn)
                if source is None or not source.alive:
                    continue
                data = source.read_block(command.block_id)
                if data is None:
                    continue
                target.store_block(command.block_id, data)
                self.any_namenode().block_received(
                    target.dn_id, command.block_id, len(data))

    # -- observability ------------------------------------------------------------------------

    def metrics_registry(self) -> "MetricsRegistry":
        """One cluster-wide registry: merge every namenode, merge the
        driver, recompute the hit rate.

        Counters and histograms sum/fold across namenodes (dead ones
        included — their history is still part of the cluster's story);
        the driver's registry carries what the database side measured
        (the engine's own ``ndb_*`` in-process; behind an ndb-server the
        client's ``rpc_*`` and the engine gauges the server reports).
        """
        from repro.metrics.registry import MetricsRegistry

        merged = MetricsRegistry()
        for nn in self.namenodes:
            merged.merge(nn.metrics_registry())
        merged.merge(self.driver.metrics_registry())
        # summing per-NN hit rates is meaningless; recompute from totals
        hits = merged.get_gauge("hint_cache_hits") or 0.0
        misses = merged.get_gauge("hint_cache_misses") or 0.0
        total = hits + misses
        merged.set_gauge("hint_cache_hit_rate",
                         hits / total if total else 0.0)
        return merged

    def metrics_snapshot(self) -> dict:
        """JSON-able snapshot of the aggregated cluster metrics."""
        from repro.metrics import export

        return export.snapshot(
            self.metrics_registry(),
            meta={"namenodes": len(self.namenodes),
                  "live_namenodes": len(self.live_namenodes()),
                  "datanodes": len(self.datanodes),
                  "engine": self.driver.engine_name})

    def metrics_prometheus(self) -> str:
        """Aggregated cluster metrics in Prometheus text format."""
        from repro.metrics import export

        return export.prometheus_text(self.metrics_registry())

    # -- block reports ------------------------------------------------------------------------

    def send_block_report(self, dn_id: int,
                          namenode: Optional[NameNode] = None) -> dict:
        """Send one datanode's full report to a namenode.

        The leader balances reports over namenodes (§3); callers may pin a
        namenode explicitly (the §7.7 benchmark does).
        """
        dn = self.datanode(dn_id)
        if dn is None or not dn.alive:
            return {}
        nn = namenode or self._report_target(dn_id)
        processor = BlockReportProcessor(nn)
        result = processor.process(dn_id, dn.block_report())
        for block_id in result.get("orphan_block_ids", []):
            dn.delete_block(block_id)
        return result

    def _report_target(self, dn_id: int) -> NameNode:
        live = self.live_namenodes()
        if not live:
            raise NameNodeUnavailableError("no live namenodes")
        return live[dn_id % len(live)]
