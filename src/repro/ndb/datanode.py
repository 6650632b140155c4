"""NDB datanodes and the commit log used for recovery.

Each datanode stores fragment replicas for the partitions of its node
group. The cluster keeps one logical, GCP-ordered commit log of committed
transactions (redo records with before-images serving as undo records),
stamped with the epoch they committed in; appends to it are *group
committed* (:class:`GroupCommitLog`): concurrent commits stage their
records and a single flush leader makes the whole batch durable in one
flush. Cluster-level recovery restores the last local checkpoint and
rolls that log forward to the last *completed* epoch — transactions that
committed in the in-flight epoch are lost, which is exactly NDB's
global-checkpoint semantics (paper §2.2).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.faults import fault_point
from repro.metrics.registry import HistogramMetric
from repro.metrics.tracing import span
from repro.ndb.fragment import Fragment, WriteRecord
from repro.ndb.schema import TableSchema
from repro.util.park import park


@dataclass(slots=True)
class CommitRecord:
    """Redo/undo log entry for one committed transaction."""

    tx_id: int
    epoch: int
    writes: list[WriteRecord] = field(default_factory=list)


class GroupCommitLog:
    """Group-committed commit log: concurrent appends share one flush.

    Every append stages its record and returns only once a *flush leader*
    has made it durable. The first thread to find no flush in progress
    becomes the leader and drains the entire staged batch in one flush
    (``flush_delay`` seconds of simulated device latency, slept outside
    the mutex so followers can keep staging). Records land in staging
    order, so the log stays sequential; conflicting transactions are
    already ordered by their row locks. The leader observes each flush's
    batch size once in ``batch_sizes``, so its count is flushes and its
    sum is records.
    """

    def __init__(self, flush_delay: float,
                 batch_sizes: HistogramMetric) -> None:
        self.flush_delay = flush_delay
        self._batch_sizes = batch_sizes
        #: the durable, GCP-ordered log (replayed by cluster recovery)
        self.records: list[CommitRecord] = []  # guarded_by: _cond
        self._cond = threading.Condition()
        self._staged: list[tuple[int, CommitRecord]] = []  # guarded_by: _cond
        self._flushing = False  # guarded_by: _cond
        self._next_seq = 0      # guarded_by: _cond
        self._flushed_seq = -1  # guarded_by: _cond

    def snapshot(self) -> list[CommitRecord]:
        """A point-in-time copy of the durable log."""
        with self._cond:
            return list(self.records)

    def replace(self, records: list[CommitRecord]) -> None:
        """Swap the durable log wholesale (recovery truncation)."""
        with self._cond:
            self.records = list(records)

    def __len__(self) -> int:
        with self._cond:
            return len(self.records)

    def stats(self) -> dict[str, int]:
        return {"flushes": self._batch_sizes.count,
                "records": len(self),
                "max_batch": int(self._batch_sizes.max)}

    def append(self, record: CommitRecord) -> None:
        """Stage ``record`` and return once it is flushed."""
        # stall-only site (slow log device / flush hiccup): fires before
        # staging, so a delay here exercises group-commit batching under
        # back-pressure; an injected error would strand already-applied
        # replica writes, so plans must not raise at this site
        fault_point("ndb.log.flush", tx_id=record.tx_id, epoch=record.epoch)
        with self._cond:
            seq = self._next_seq
            self._next_seq += 1
            self._staged.append((seq, record))
            while True:
                if self._flushed_seq >= seq:
                    return
                if not self._flushing:
                    break  # become the flush leader
                park()
                self._cond.wait()
            batch = self._staged
            self._staged = []
            self._flushing = True
        # the flush leader's trace charges the whole batch's flush; the
        # batch size label shows how many followers rode along
        with span("log_flush", batch=len(batch)):
            if self.flush_delay:
                park()
                time.sleep(self.flush_delay)  # the simulated log-device flush
        self._batch_sizes.observe(len(batch))
        with self._cond:
            self.records.extend(rec for _seq, rec in batch)
            self._flushed_seq = max(self._flushed_seq,
                                    max(s for s, _rec in batch))
            self._flushing = False
            self._cond.notify_all()


class NDBDatanode:
    """One storage node: fragment replicas plus liveness state."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.alive = True
        #: (table_name, partition_id) -> Fragment
        self.fragments: dict[tuple[str, int], Fragment] = {}

    def add_fragment(self, schema: TableSchema, partition_id: int) -> Fragment:
        frag = Fragment(schema, partition_id)
        self.fragments[(schema.name, partition_id)] = frag
        return frag

    def fragment(self, table: str, partition_id: int) -> Fragment:
        return self.fragments[(table, partition_id)]

    def kill(self) -> None:
        """Simulate a crash: volatile (in-memory) fragment data is lost."""
        self.alive = False
        for frag in self.fragments.values():
            frag.load({})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"NDBDatanode(id={self.node_id}, {state}, fragments={len(self.fragments)})"
