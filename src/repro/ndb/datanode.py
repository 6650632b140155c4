"""NDB datanodes and the commit logs used for recovery.

Each datanode stores fragment replicas for the partitions of its node
group, plus a volatile per-node redo log appended by the node's own
commit-apply work (modelling NDB's per-LDM redo logging — the append
happens inside the participant's parallel apply, never under a cluster
mutex). The cluster additionally keeps one logical, GCP-ordered commit
log of committed transactions (redo records with before-images serving as
undo records), stamped with the epoch they committed in; appends to it are
*group committed* (:class:`GroupCommitLog`): concurrent commits stage
their records and a single flush leader makes the whole batch durable in
one flush. Cluster-level recovery restores the last local checkpoint and
rolls that log forward to the last *completed* epoch — transactions that
committed in the in-flight epoch are lost, which is exactly NDB's
global-checkpoint semantics (paper §2.2).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.faults import fault_point
from repro.metrics.tracing import span
from repro.ndb.fragment import Fragment
from repro.ndb.schema import TableSchema
from repro.util.park import park


@dataclass
class WriteRecord:
    """One row mutation inside a committed transaction.

    ``before`` is the committed row image prior to the write (undo);
    ``after`` is the image after it (redo). Inserts have ``before=None``;
    deletes have ``after=None``.
    """

    table: str
    partition_id: int
    pk: tuple[Any, ...]
    before: Optional[dict[str, Any]]
    after: Optional[dict[str, Any]]


@dataclass
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
    already ordered by their row locks.
    """

    def __init__(self, flush_delay: float = 0.0) -> None:
        self.flush_delay = flush_delay
        #: the durable, GCP-ordered log (replayed by cluster recovery)
        self.records: list[CommitRecord] = []  # guarded_by: _cond
        self._cond = threading.Condition()
        self._staged: list[tuple[int, CommitRecord]] = []  # guarded_by: _cond
        self._flushing = False  # guarded_by: _cond
        self._next_seq = 0      # guarded_by: _cond
        self._flushed_seq = -1  # guarded_by: _cond
        # monitoring
        self.flushes = 0         # guarded_by: _cond
        self.max_batch = 0       # guarded_by: _cond
        self.last_batch_size = 0  # guarded_by: _cond

    def snapshot(self) -> list[CommitRecord]:
        """A point-in-time copy of the durable log."""
        with self._cond:
            return list(self.records)

    def replace(self, records: list[CommitRecord]) -> None:
        """Swap the durable log wholesale (recovery truncation)."""
        with self._cond:
            self.records = list(records)

    def stats(self) -> dict[str, int]:
        with self._cond:
            return {"flushes": self.flushes,
                    "records": len(self.records),
                    "max_batch": self.max_batch}

    def append(self, record: CommitRecord) -> int:
        """Stage ``record``, wait until flushed; returns the batch size
        the record was flushed in (1 when it flushed alone)."""
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
                    return self.last_batch_size
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
        with self._cond:
            self.records.extend(rec for _seq, rec in batch)
            self._flushed_seq = max(self._flushed_seq,
                                    max(s for s, _rec in batch))
            self._flushing = False
            self.flushes += 1
            self.last_batch_size = len(batch)
            if len(batch) > self.max_batch:
                self.max_batch = len(batch)
            self._cond.notify_all()
            return len(batch)


class NDBDatanode:
    """One storage node: fragment replicas plus liveness state."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.alive = True
        #: (table_name, partition_id) -> Fragment
        self.fragments: dict[tuple[str, int], Fragment] = {}
        self.failures = 0
        #: volatile per-node redo: (tx_id, epoch, WriteRecord) appended by
        #: this node's commit-apply task; lost (cleared) when the node dies
        self.redo_log: list[tuple[int, int, WriteRecord]] = []

    def add_fragment(self, schema: TableSchema, partition_id: int) -> Fragment:
        frag = Fragment(schema, partition_id)
        self.fragments[(schema.name, partition_id)] = frag
        return frag

    def fragment(self, table: str, partition_id: int) -> Fragment:
        return self.fragments[(table, partition_id)]

    def kill(self) -> None:
        """Simulate a crash: volatile (in-memory) fragment data is lost."""
        self.alive = False
        self.failures += 1
        self.redo_log = []
        for frag in self.fragments.values():
            frag.load({})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"NDBDatanode(id={self.node_id}, {state}, fragments={len(self.fragments)})"
