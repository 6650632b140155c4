"""Configuration for an NDB cluster instance.

Every field here is set to something other than its default by a
shipping caller (see the Configuration table in docs/architecture.md);
engine internals with one value in use — lock stripes, deadlock
detection, the commit gate, batched lock acquisition — are constants of
the code that owns them, not options.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validate import check_ranges


@dataclass
class NDBConfig:
    """Sizing and behaviour knobs for :class:`repro.ndb.NDBCluster`.

    Defaults mirror the paper's deployment where they are stated:
    replication degree 2 (§2.2.1), a 1.2 s transaction-inactive timeout
    (§7.6.2). ``lock_timeout`` is wall-clock seconds because lock waits
    happen on real threads.
    """

    num_datanodes: int = 2
    replication: int = 2
    #: number of table partitions per datanode; total partitions =
    #: ``num_datanodes * partitions_per_node`` (fixed at creation, like NDB).
    partitions_per_node: int = 2
    #: seconds a transaction waits for a row lock before aborting
    #: (NDB TransactionInactiveTimeout is 1200 ms by default).
    lock_timeout: float = 1.2
    #: worker threads in the per-cluster shard executor used for parallel
    #: batch/scan fan-out and participant-parallel commit apply. 0 disables
    #: the executor entirely (all dispatch runs inline on the caller).
    executor_threads: int = 4
    #: simulated seconds per database round trip (shard visit, participant
    #: commit round). 0 means no simulated latency (unit-test mode) and
    #: multi-shard work runs inline — the fan-out would be pure Python
    #: compute, which the GIL makes slower on more threads; > 0 dispatches
    #: it on the executor. The parallelism benchmark sets a sub-millisecond
    #: RTT so that the engine's fan-out/overlap behaviour is measurable in
    #: wall-clock time (same philosophy as the DES models, DESIGN.md §5).
    network_delay: float = 0.0
    #: simulated seconds per redo-log flush. 0 disables; > 0 makes the
    #: group-commit batching observable (many commits share one flush).
    log_flush_delay: float = 0.0

    def __post_init__(self) -> None:
        check_ranges(self, {
            "num_datanodes": "[1, inf)",
            "replication": "[1, inf)",
            "partitions_per_node": "[1, inf)",
            "lock_timeout": "(0, inf)",
            "executor_threads": "[0, inf)",
            "network_delay": "[0, inf)",
            "log_flush_delay": "[0, inf)",
        })
        if self.num_datanodes % self.replication != 0:
            raise ValueError(
                "num_datanodes must be a multiple of the replication degree "
                f"(got {self.num_datanodes} datanodes, R={self.replication})"
            )

    @property
    def num_node_groups(self) -> int:
        return self.num_datanodes // self.replication

    @property
    def num_partitions(self) -> int:
        return self.num_datanodes * self.partitions_per_node
