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
    large batches of inodes per transaction (§6.1 phase 3); leases and
    leader heartbeats follow HDFS-like timing.
    """

    #: inodes at depth <= this are pseudo-randomly partitioned by name
    #: hash instead of by parent id (depth 1 = children of root). 0
    #: disables the scheme entirely (ablation).
    random_partition_depth: int = 2
    #: default replication factor for new files
    default_replication: int = 3
    #: block size in bytes (only matters for block allocation accounting)
    block_size: int = 128 * 1024 * 1024
    #: inodes deleted/updated per transaction in subtree operations
    subtree_batch_size: int = 64
    #: worker threads quiescing / executing subtree operations in parallel
    subtree_parallelism: int = 4
    #: how many inode ids a namenode leases from the sequence table at once
    id_batch_size: int = 1000
    #: seconds without renewal before a lease may be recovered
    lease_timeout: float = 60.0
    #: heartbeats a namenode may miss before being declared dead
    nn_missed_heartbeats: int = 2
    #: seconds without heartbeat before a datanode is declared dead
    dn_heartbeat_timeout: float = 10.0
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
    #: graceful degradation (docs/robustness.md): when enabled, a
    #: namenode whose recent commit failure rate trips the threshold
    #: enters *read-only degraded mode* — reads/stats keep being served
    #: from the database, mutations are rejected with a typed
    #: :class:`~repro.errors.DegradedModeError` until a write probe
    #: succeeds. Off by default: abort storms in small test clusters are
    #: routine and must not flip namenodes read-only mid-suite.
    degraded_mode_enabled: bool = False
    #: abort-class failure rate over the window that trips degraded mode
    degraded_failure_threshold: float = 0.5
    #: sliding window of recent operation outcomes
    degraded_window: int = 32
    #: outcomes required in the window before the trip can fire
    degraded_min_samples: int = 8
    #: seconds between write probes while degraded (clock-driven)
    degraded_probe_interval: float = 0.5

    def __post_init__(self) -> None:
        check_ranges(self, {
            "random_partition_depth": "[0, inf)",
            "default_replication": "[1, inf)",
            "subtree_batch_size": "[1, inf)",
            "subtree_parallelism": "[1, inf)",
            "id_batch_size": "[1, inf)",
            "trace_sample_every": "[0, inf)",
            "degraded_failure_threshold": "(0, 1]",
            "degraded_window": "[1, inf)",
            "degraded_min_samples": "[1, inf)",
            "degraded_probe_interval": "[0, inf)",
        })
        if self.degraded_min_samples > self.degraded_window:
            raise ValueError(
                "degraded_min_samples must be <= degraded_window")
