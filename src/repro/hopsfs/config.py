"""HopsFS configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.clock import Clock, SystemClock
from repro.util.validate import check_ranges


@dataclass
class HopsFSConfig:
    """Behaviour knobs for a HopsFS deployment.

    Paper-sourced defaults: the top two levels of the hierarchy are
    pseudo-randomly partitioned (§4.2.1); subtree operations manipulate
    large batches of inodes per transaction (§6.1 phase 3). Leases,
    heartbeats and replication follow HDFS-like constants kept next to
    the code that uses them.
    """

    #: inodes at depth <= this are pseudo-randomly partitioned by name
    #: hash instead of by parent id (depth 1 = children of root). 0
    #: disables the scheme entirely (ablation).
    random_partition_depth: int = 2
    #: block size in bytes (only matters for block allocation accounting)
    block_size: int = 128 * 1024 * 1024
    #: inodes deleted/updated per transaction in subtree operations
    subtree_batch_size: int = 64
    #: worker threads quiescing / executing a level of a subtree
    #: operation in parallel; a pool is built only where the DAL's round
    #: trips wait (``DALDriver.round_trips_wait``), elsewhere the units
    #: run on the calling thread
    subtree_parallelism: int = 4
    #: clock used for leases, heartbeats and leader election
    clock: Clock = field(default_factory=SystemClock)
    #: trace every Nth operation (1 = all, 0 = tracing off); per-op
    #: latency metrics are always recorded regardless of sampling. The
    #: default samples: building a full span tree for every operation
    #: roughly doubles the cost of a warm in-memory op, sampling keeps
    #: the phase histograms fed at a fraction of that (the first
    #: operation is always traced, then every Nth after it)
    trace_sample_every: int = 16
    #: directory for automatic flight-recorder dumps (None: only the
    #: $REPRO_FLIGHT_DIR environment variable enables auto-dumps)
    flight_dump_dir: str | None = None

    def __post_init__(self) -> None:
        check_ranges(self, {
            "random_partition_depth": "[0, inf)",
            "block_size": "[1, inf)",
            "subtree_batch_size": "[1, inf)",
            "subtree_parallelism": "[1, inf)",
            "trace_sample_every": "[0, inf)",
        })
