"""Per-transaction and per-session database access statistics.

These statistics serve two purposes:

1. **Verification** — tests assert that HopsFS operations use only the
   cheap access paths (PK, batched PK, PPIS) and never full-table or
   all-shard index scans (paper Fig. 2b), and that the inode hint cache
   turns N path-resolution round trips into one.
2. **Profiling for the performance model** — :mod:`repro.perfmodel`
   records the ordered list of :class:`AccessEvent` generated by each file
   system operation and replays it in simulated time.

The event list is the only record: a round trip is one append, and every
total (round trips, rows, hops, by kind) is computed from the list when
read. Over the wire a reply ships its events as they are and the client
appends them (:mod:`repro.rpc.protocol`); the namenode folds an op's
events into its ``db_*`` counters once, at the op's end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.metrics.tracing import _ACTIVE, record_access


class AccessKind(str, enum.Enum):
    """The five database access types of paper Figure 2a, plus commit.

    A ``str`` enum: an event goes on the wire as it is, its kind as the
    value's string."""

    PK = "pk"                      # single-row primary-key operation
    BATCH_PK = "batched_pk"        # batched primary-key operations
    PPIS = "partition_pruned_scan"  # scan confined to one shard
    INDEX_SCAN = "index_scan"      # scan touching every shard
    FULL_SCAN = "full_table_scan"  # unindexed scan touching every shard
    COMMIT = "commit"              # 2PC commit round


class AccessEvent(NamedTuple):
    """One client↔cluster round trip.

    ``nodes`` is the set of datanodes doing work for the round trip (for a
    batched read this is every node holding one of the keys — and, when
    the read carried partition-pruned scans, one of their shards: the
    event then names every table, ``"inodes+blocks+replicas"``, lists the
    partitions of the keys then of the scans and counts all the rows;
    the work is done in parallel). A commit that rode such a read is part
    of its trip: a read-only commit never was an event of its own.
    ``coordinator_local`` is True when the transaction
    coordinator's own node holds all the data — the distribution-aware
    transaction win.
    """

    kind: AccessKind
    table: str
    partitions: tuple[int, ...]
    nodes: tuple[int, ...]
    coordinator: int
    rows: int = 0
    locked: bool = False
    write: bool = False
    #: node groups owning ``partitions`` (shard attribution for tracing;
    #: empty when the producer has no partition map, e.g. the memory DAL)
    node_groups: tuple[int, ...] = ()

    @property
    def coordinator_local(self) -> bool:
        return all(node == self.coordinator for node in self.nodes)


@dataclass
class AccessStats:
    """The events of a transaction or a session's run; addable."""

    events: list[AccessEvent] = field(default_factory=list)
    #: row locks requested: one per key a locking read names, per
    #: candidate a locking scan locks, and per write — counted by the
    #: driver where it takes the lock, never from an event's rows
    rows_locked: int = 0

    def record(self, event: AccessEvent) -> None:
        # mark the round trip on the active per-operation trace, if any
        # (the inline thread-local read keeps the untraced path at zero
        # extra function calls — this is the hottest instrumentation site)
        if _ACTIVE.bind[1] is not None:
            record_access(event.kind.value, event.table,
                          event.partitions, event.node_groups)
        self.events.append(event)

    def merge(self, other: "AccessStats") -> None:
        self.events += other.events
        self.rows_locked += other.rows_locked

    @property
    def round_trips(self) -> int:
        return len(self.events)

    def count(self, kind: AccessKind) -> int:
        return sum(1 for event in self.events if event.kind is kind)

    @property
    def rows_read(self) -> int:
        return sum(event.rows for event in self.events if not event.write)

    @property
    def rows_written(self) -> int:
        return sum(event.rows for event in self.events if event.write)

    @property
    def remote_partition_hops(self) -> int:
        return sum(node != event.coordinator
                   for event in self.events for node in event.nodes)

    @property
    def uses_expensive_scans(self) -> bool:
        """True if any all-shard access (IS or FTS) was used."""
        return any(event.kind is AccessKind.INDEX_SCAN
                   or event.kind is AccessKind.FULL_SCAN
                   for event in self.events)
