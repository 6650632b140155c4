"""DAL driver backed by the NDB cluster (the production configuration)."""

from __future__ import annotations

from typing import Optional

from repro.dal.driver import DALDriver
from repro.metrics.registry import MetricsRegistry
from repro.ndb.cluster import NDBCluster
from repro.ndb.config import NDBConfig
from repro.ndb.schema import TableSchema
from repro.ndb.session import Session


class NDBDriver(DALDriver):
    """Wraps an :class:`NDBCluster`; sessions are native NDB sessions."""

    def __init__(self, cluster: Optional[NDBCluster] = None,
                 config: Optional[NDBConfig] = None) -> None:
        if cluster is not None and config is not None:
            raise ValueError("pass either a cluster or a config, not both")
        self.cluster = cluster if cluster is not None else NDBCluster(config)

    def create_table(self, schema: TableSchema) -> None:
        self.cluster.create_table(schema)

    def session(self) -> Session:
        return self.cluster.session()

    def table_size(self, table: str) -> int:
        return self.cluster.table_size(table)

    @property
    def engine_name(self) -> str:
        cfg = self.cluster.config
        dispatch = ("parallel" if self.cluster.parallel_dispatch_enabled
                    else "inline")
        return (f"ndb(nodes={cfg.num_datanodes}, r={cfg.replication}, "
                f"partitions={cfg.num_partitions}, dispatch={dispatch})")

    @property
    def round_trips_wait(self) -> bool:
        return self.cluster.round_trips_wait

    def metrics_registry(self) -> MetricsRegistry:
        return self.cluster.metrics_registry()
