"""The NDB cluster: schema registry, placement, commit, failures, recovery.

Responsibilities:

* owns datanodes, the partition map, the row-lock manager, the
  shard executor and the group-committed commit (redo/undo) log;
* applies committed write batches to every live replica of each touched
  partition (the effect of NDB's two-phase commit across node groups) —
  participants apply their per-node batches in parallel, serialized only
  per partition, never cluster-wide;
* node failure handling: aborts transactions coordinated by a dead node
  (transaction-coordinator failover aborts its open transactions), promotes
  backup replicas to primary, and refuses service only when an entire node
  group is gone (paper §2.2.1, §7.6.2);
* epochs (global checkpoints), local checkpoints and cluster-level crash
  recovery to the last completed epoch (§2.2).

Concurrency model (see ``docs/architecture.md`` §1): ordinary commits take
the *read* side of a structure gate plus the fragment locks of the
partitions they touch, so commits on disjoint partitions overlap;
structural operations (node kill/restart, epoch completion, checkpoints,
crash recovery) take the *write* side and therefore observe no in-flight
commit. Row-level isolation is still the lock manager's job.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Mapping, Optional, TypeVar

from repro.errors import (
    ClusterDownError,
    NoSuchTableError,
    SchemaError,
    TransactionAbortedError,
)
from repro.faults import fault_point
from repro.metrics.registry import HistogramMetric, MetricsRegistry
from repro.metrics.tracing import TraceContext, span
from repro.ndb.config import NDBConfig
from repro.ndb.datanode import CommitRecord, GroupCommitLog, NDBDatanode, WriteRecord
from repro.ndb.fragment import Fragment
from repro.ndb.locks import LockManager
from repro.ndb.partition import PartitionMap
from repro.ndb.schema import TableSchema
from repro.ndb.stats import AccessEvent, AccessKind
from repro.ndb.transaction import Transaction, TxState
from repro.util.park import park
from repro.util.rwlock import ReadWriteLock

T = TypeVar("T")


class NDBCluster:
    """An in-memory NDB cluster."""

    def __init__(self, config: Optional[NDBConfig] = None) -> None:
        self.config = config or NDBConfig()
        self.datanodes = [NDBDatanode(i) for i in range(self.config.num_datanodes)]
        self._pmap = PartitionMap(
            num_partitions=self.config.num_partitions,
            num_node_groups=self.config.num_node_groups,
            replication=self.config.replication,
        )
        #: each partition's replica nodes (preference order) and node
        #: group, fixed by the config, so built once
        self._replicas = tuple(
            tuple(self._pmap.replica_nodes(pid))
            for pid in range(self.config.num_partitions))
        self._groups = tuple(self._pmap.node_group_of(pid)
                             for pid in range(self.config.num_partitions))
        # guarded_by: GIL -- tables are created during single-threaded setup
        self._schemas: dict[str, TableSchema] = {}
        #: every ``ndb_*`` metric of this engine, whoever asked for the
        #: work; the handles below are made once so the fetch and commit
        #: paths never look a metric up by name
        self.metrics = MetricsRegistry()
        self._fanout = self.metrics.histogram("ndb_shard_fanout")
        self._dispatch = {
            path: self.metrics.counter("ndb_shard_dispatch_total", path=path)
            for path in ("inline", "parallel")}
        self._commit_participants = self.metrics.histogram(
            "ndb_commit_participants")
        #: ``ndb_shard_op_seconds`` handles by (shard, kind)
        # guarded_by: GIL -- racing fillers store the registry's one metric
        self._shard_op_hists: dict[tuple[Any, str], HistogramMetric] = {}
        self._locks = LockManager(timeout=self.config.lock_timeout,
                                  shard_of=self._lock_key_shard,
                                  registry=self.metrics,
                                  shard_op_seconds=self._shard_op_seconds)
        #: current primary node per partition (same for all tables),
        #: replaced whole whenever placement changes
        # guarded_by: _structure_gate [writes]
        self._primaries = self._preferred_primaries()
        self._tx_counter = itertools.count(1)
        self._active_txs: dict[int, Transaction] = {}  # guarded_by: _registry_lock
        self._registry_lock = threading.Lock()
        #: commits hold the read side; structural changes (kills, restarts,
        #: checkpoints, recovery) hold the write side
        self._structure_gate = ReadWriteLock(name="structure_gate")
        #: per-partition commit-apply locks (fragment-level serialization)
        self._partition_locks = [threading.Lock()
                                 for _ in range(self.config.num_partitions)]
        #: shard executor for parallel batch/scan fan-out and participant-
        #: parallel commit apply (created lazily; None until first use)
        self._executor: Optional[ThreadPoolExecutor] = None  # guarded_by: _executor_mutex [writes]
        self._executor_mutex = threading.Lock()
        # epochs / recovery state
        self.epoch = 1            # guarded_by: _structure_gate [writes]
        self.completed_epoch = 0  # guarded_by: _structure_gate [writes]
        # guarded_by: GIL -- the GroupCommitLog synchronizes internally
        self._commit_log = GroupCommitLog(
            flush_delay=self.config.log_flush_delay,
            batch_sizes=self.metrics.histogram("ndb_group_commit_batch"))
        self._lcp_snapshot: Optional[dict[tuple[str, int], dict]] = None  # guarded_by: _structure_gate
        self._lcp_watermark = 0  # guarded_by: _structure_gate
        self._coordinator_rr = itertools.count()

    # -- schema ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        if schema.name in self._schemas:
            raise SchemaError(f"table {schema.name!r} already exists")
        self._schemas[schema.name] = schema
        for pid, replicas in enumerate(self._replicas):
            for node_id in replicas:
                self.datanodes[node_id].add_fragment(schema, pid)

    def schema(self, table: str) -> TableSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise NoSuchTableError(table) from None

    def tables(self) -> list[str]:
        return sorted(self._schemas)

    # -- placement ------------------------------------------------------------------

    def partition_of(self, table: str, pk: tuple[Any, ...]) -> int:
        schema = self.schema(table)
        return self._pmap.partition_of(schema.partition_values_from_pk(pk))

    def partition_for_values(self, table: str, values: Mapping[str, Any]) -> int:
        schema = self.schema(table)
        return self._pmap.partition_of(schema.partition_values(values))

    def _lock_key_shard(self, key: Any) -> Optional[int]:
        """Partition id for a row-lock key (shard attribution; best effort)."""
        try:
            table, pk = key
            return self.partition_of(table, pk)
        except Exception:  # noqa: BLE001 - non-(table, pk) keys have no shard
            return None

    def _primary_node(self, pid: int) -> int:
        node_id = self._primaries[pid]
        if not self.datanodes[node_id].alive:
            raise ClusterDownError(
                f"partition {pid} has no live primary (node group down)"
            )
        return node_id

    def _primary_fragment(self, table: str, pid: int) -> Fragment:
        return self.datanodes[self._primary_node(pid)].fragment(table, pid)

    def primary_table(self) -> tuple[int, ...]:
        """The pid→primary-node table.

        Stats recording reads this on every access event. Entries are not
        liveness-checked — a concurrent failover replaces the table, and
        actual data access still goes through :meth:`_primary_node`,
        which does check.
        """
        return self._primaries

    def group_table(self) -> tuple[int, ...]:
        """The pid→node-group table (fixed by the config)."""
        return self._groups

    def _preferred_primaries(self) -> tuple[int, ...]:
        """The first replica of every partition (the layout at start-up
        and after crash recovery)."""
        return tuple(replicas[0] for replicas in self._replicas)

    def live_replicas(self, pid: int) -> list[int]:
        datanodes = self.datanodes
        return [n for n in self._replicas[pid] if datanodes[n].alive]

    # -- commit log (group committed) ------------------------------------------------

    @property
    def commit_log(self) -> list[CommitRecord]:
        """A point-in-time copy of the durable commit log."""
        return self._commit_log.snapshot()

    @property
    def group_commit_stats(self) -> dict[str, int]:
        """Flush counters of the group-committed log (observability):
        flushes and the largest batch from ``ndb_group_commit_batch``,
        records from the log."""
        return self._commit_log.stats()

    def metrics_registry(self) -> MetricsRegistry:
        """The engine's registry with its point-in-time gauges refreshed:
        the lock manager's and the group-committed log's running totals
        as ``ndb_lock_*`` / ``ndb_group_commit_*`` — the one place they
        are named, for whichever process owns the engine."""
        registry = self.metrics
        locks = self._locks
        registry.set_gauge("ndb_lock_waits", locks.waits)
        registry.set_gauge("ndb_lock_deadlocks", locks.deadlocks)
        registry.set_gauge("ndb_lock_timeouts", locks.timeouts)
        registry.set_gauge("ndb_lock_wait_seconds", locks.wait_seconds)
        registry.set_gauge("ndb_lock_table_size", locks.lock_table_size())
        stats = self.group_commit_stats
        for key in ("flushes", "records", "max_batch"):
            registry.set_gauge(f"ndb_group_commit_{key}", stats[key])
        return registry

    def _shard_op_seconds(self, shard: Any, kind: str) -> HistogramMetric:
        """The ``ndb_shard_op_seconds{shard,kind}`` histogram."""
        hist = self._shard_op_hists.get((shard, kind))
        if hist is None:
            hist = self._shard_op_hists[(shard, kind)] = (
                self.metrics.histogram("ndb_shard_op_seconds",
                                       shard=shard, kind=kind))
        return hist

    # -- shard executor ---------------------------------------------------------------

    @property
    def engine_name(self) -> str:
        """Human-readable engine identifier (the DAL driver's)."""
        cfg = self.config
        dispatch = "parallel" if self.parallel_dispatch_enabled else "inline"
        return (f"ndb(nodes={cfg.num_datanodes}, r={cfg.replication}, "
                f"partitions={cfg.num_partitions}, dispatch={dispatch})")

    @property
    def round_trips_wait(self) -> bool:
        """Whether a round trip waits (simulated latency). With
        zero-latency in-memory shards every round trip is pure Python
        compute, which the GIL runs no faster on more threads, so work
        that could fan out runs faster inline. The one rule for both the
        engine's fan-out and the namenode's subtree units
        (:attr:`repro.dal.driver.DALDriver.round_trips_wait`)."""
        return self.config.network_delay > 0

    @property
    def parallel_dispatch_enabled(self) -> bool:
        """Whether multi-shard work fans out on the executor: only when
        there is one and round trips wait."""
        return self.config.executor_threads > 0 and self.round_trips_wait

    def _shard_executor(self) -> ThreadPoolExecutor:
        executor = self._executor
        if executor is None:
            with self._executor_mutex:
                executor = self._executor
                if executor is None:
                    executor = self._executor = ThreadPoolExecutor(
                        max_workers=self.config.executor_threads,
                        thread_name_prefix="ndb-shard")
        return executor

    def close(self) -> None:
        """Shut the shard executor down (idempotent; GC also handles it)."""
        with self._executor_mutex:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def _run_on_shards(self, tasks: list[Callable[[], T]]) -> list[T]:
        """Run shard-local thunks; in parallel when dispatch is enabled.

        Results keep task order. If any task raises, every task is still
        awaited (no stragglers left mutating state) and the first
        exception is re-raised. Records the fan-out width and dispatch
        path.
        """
        parallel = len(tasks) > 1 and self.parallel_dispatch_enabled
        self._fanout.observe(len(tasks))
        self._dispatch["parallel" if parallel else "inline"].inc()
        if not parallel:
            return [task() for task in tasks]
        # propagate the submitter's trace binding onto the worker threads
        # so shard spans/events parent under the submitting span
        ctx = TraceContext.capture()
        futures = [self._shard_executor().submit(ctx.wrap(task))
                   for task in tasks]
        park()
        results: list[T] = []
        first_exc: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_exc is None:
                    first_exc = exc
                results.append(None)  # type: ignore[arg-type]
        if first_exc is not None:
            raise first_exc
        return results

    def _round_trip(self) -> None:
        """One simulated network round trip (no-op at zero delay)."""
        if self.config.network_delay:
            park()
            time.sleep(self.config.network_delay)

    # -- sessions / transactions ------------------------------------------------------

    def session(self) -> "Session":
        from repro.ndb.session import Session

        return Session(self)

    def begin(self, hint: Optional[tuple[str, Mapping[str, Any]]] = None) -> Transaction:
        """Start a transaction.

        ``hint`` is ``(table, partition_key_values)``: the transaction
        coordinator is placed on the node holding that partition's primary
        replica (a *distribution-aware transaction*). An incorrect hint
        only costs extra network hops, never correctness (§2.2). Without a
        hint, coordinators round-robin over live datanodes.
        """
        coordinator = self._pick_coordinator(hint)
        tx = Transaction(self, next(self._tx_counter), coordinator)
        with self._registry_lock:
            self._active_txs[tx.tx_id] = tx
        return tx

    def _pick_coordinator(self, hint: Optional[tuple[str, Mapping[str, Any]]]) -> int:
        if hint is not None:
            table, values = hint
            node_id = self._primaries[self.partition_for_values(table, values)]
            if self.datanodes[node_id].alive:
                return node_id
        live = [n.node_id for n in self.datanodes if n.alive]
        if not live:
            raise ClusterDownError("no live datanodes")
        return live[next(self._coordinator_rr) % len(live)]

    def _forget_tx(self, tx: Transaction) -> None:
        with self._registry_lock:
            self._active_txs.pop(tx.tx_id, None)

    # -- commit application --------------------------------------------------------------

    def _end_read_only(self, tx: Transaction) -> None:
        """A commit with nothing to apply: :meth:`_apply_commit`'s fault
        site, then its failover-mark check and COMMITTED under the
        structure gate's read side. The gate stays because
        :meth:`kill_node` picks its victims by ``state is ACTIVE`` under
        the write side and marks them after: without it, an end could
        pass the mark check before the mark and turn COMMITTED after the
        pick — a victim reporting success. The caller holds ``tx``'s
        commit mutex, so its state cannot change meanwhile.
        """
        fault_point("ndb.commit.before_apply", tx_id=tx.tx_id,
                    coordinator=tx.coordinator)
        gate = self._structure_gate
        gate.acquire_read()
        try:
            if self._locks.is_aborted(tx):
                raise TransactionAbortedError(
                    f"tx {tx.tx_id} aborted by coordinator failover")
            tx.state = TxState.COMMITTED
        finally:
            gate.release_read()

    def _apply_commit(self, tx: Transaction) -> None:
        """Validate participants, apply the write batch, log redo/undo.

        Holds the structure gate's *read* side (so node kills, epoch
        completion and recovery never observe a half-applied batch) plus
        the fragment locks of the touched partitions only — commits on
        disjoint partitions proceed concurrently. Each participant node
        applies its slice of the batch through :meth:`_participant`,
        inline or, when round trips wait, in parallel on the shard
        executor; the commit record (redo and undo images) goes through
        the group-committed log afterwards. The gate is taken without a
        context manager, as in :meth:`_end_read_only`: every write pays
        for it.
        """
        # abortable site: fires before any replica applied anything, so an
        # injected error is a clean abort the standard retry loop handles
        fault_point("ndb.commit.before_apply", tx_id=tx.tx_id,
                    coordinator=tx.coordinator)
        gate = self._structure_gate
        gate.acquire_read()
        try:
            if tx.state is not TxState.ACTIVE:
                raise TransactionAbortedError(f"tx {tx.tx_id} no longer active")
            if self._locks.is_aborted(tx):
                raise TransactionAbortedError(
                    f"tx {tx.tx_id} aborted by coordinator failover")
            writes = tx._writes
            # prepare: every touched partition must have a live primary;
            # each one's primary fragments and replica batches, once
            pids = sorted({pending.pid for pending in writes.values()})
            primaries = self._primaries
            node_batches: dict[int, list[WriteRecord]] = {}
            placement = {}
            for pid in pids:
                # raises ClusterDownError if the node group is dead
                primary = self.datanodes[self._primary_node(pid)].fragments
                placement[pid] = (primary, [
                    node_batches.setdefault(node_id, [])
                    for node_id in self.live_replicas(pid)])
            record = CommitRecord(tx_id=tx.tx_id, epoch=self.epoch)
            held: list[threading.Lock] = []
            try:
                # fragment-level locks, in pid order (deadlock-free); a
                # holder keeps one across its participants' round trips
                for pid in pids:
                    lock = self._partition_locks[pid]
                    if not lock.acquire(blocking=False):
                        park()
                        lock.acquire()
                    held.append(lock)
                # one record per write, in write order, is its redo/undo
                # entry and every live replica's batch entry; its images
                # are the stored row and the buffered row, uncopied
                wrecs = record.writes
                write_pids = []
                for (table, pk), pending in writes.items():
                    pid = pending.pid
                    write_pids.append(pid)
                    primary, batches = placement[pid]
                    wrec = WriteRecord(
                        table=table, partition_id=pid, pk=pk,
                        before=primary[(table, pid)].peek(pk),
                        after=pending.row)
                    wrecs.append(wrec)
                    for batch in batches:
                        batch.append(wrec)
                self._run_on_shards([
                    functools.partial(self._participant, node_id, batch)
                    for node_id, batch in sorted(node_batches.items())])
            finally:
                for lock in held:
                    lock.release()
            # group-committed redo append: outside the fragment locks so a
            # slow log flush never serializes unrelated partition applies
            self._commit_log.append(record)
            tx.state = TxState.COMMITTED
            self._commit_participants.observe(len(node_batches))
            # account the flushed write batch + the commit round
            write_pids = tuple(write_pids)
            nodes = tuple(sorted(set(map(primaries.__getitem__, pids))))
            groups = tuple(sorted(set(map(self._groups.__getitem__, pids))))
            tx.stats.record(
                AccessEvent(kind=AccessKind.BATCH_PK, table="*",
                            partitions=write_pids, nodes=nodes,
                            coordinator=tx.coordinator, rows=len(write_pids),
                            locked=False, write=True, node_groups=groups)
            )
            tx.stats.record(
                AccessEvent(kind=AccessKind.COMMIT, table="*",
                            partitions=tuple(pids),
                            nodes=tuple(sorted(tx._participants)),
                            coordinator=tx.coordinator, rows=0, locked=False,
                            write=False, node_groups=groups)
            )
        finally:
            gate.release_read()

    def _participant(self, node_id: int, batch: list[WriteRecord]) -> None:
        """One participant node's apply of its commit batch, inline or on
        the shard executor: :meth:`_apply_commit` binds one per node."""
        # stall-only site (a datanode pausing mid-2PC): replicas may
        # already hold this batch partially, so plans must not inject
        # errors here
        fault_point("ndb.commit.participant", node=node_id)
        started = time.perf_counter()
        shard = pid = batch[0].partition_id
        for wrec in batch:
            if wrec.partition_id != pid:
                shard = "multi"
                break
        with span("commit.participant", node=node_id,
                  node_group=self._groups[pid], shard=shard):
            self._round_trip()  # one commit round per participant
            fragments = self.datanodes[node_id].fragments
            for wrec in batch:
                frag = fragments[(wrec.table, wrec.partition_id)]
                # the images pick the operation: a delete+insert of one
                # pk inside a tx nets out to an update
                if wrec.after is None:
                    frag.apply_delete(wrec.pk)
                elif wrec.before is None:
                    frag.apply_insert(wrec.after)
                else:
                    frag.apply_update(wrec.pk, wrec.after)
        self._shard_op_seconds(shard, "commit").observe(
            time.perf_counter() - started)

    # -- failures ----------------------------------------------------------------------

    def kill_node(self, node_id: int) -> None:
        """Crash a datanode.

        In-flight transactions coordinated by the node are aborted (their
        locks released, waiting acquirers woken) — the effect of NDB's
        transaction-coordinator failover. Partitions whose primary lived
        there fail over to a surviving replica in the node group.
        """
        node = self.datanodes[node_id]
        if not node.alive:
            return
        with self._structure_gate.write_locked():
            node.kill()
            victims = []
            with self._registry_lock:
                for tx in list(self._active_txs.values()):
                    if tx.coordinator == node_id and tx.state is TxState.ACTIVE:
                        victims.append(tx)
            # the abort mark fences the gap until the real abort below:
            # lock acquires and _apply_commit both refuse marked owners
            self._locks.abort_waiters(victims)
            primaries = list(self._primaries)
            for pid, primary in enumerate(primaries):
                if primary == node_id:
                    survivors = self.live_replicas(pid)
                    if survivors:
                        primaries[pid] = survivors[0]
                    # else: node group down; reads will raise ClusterDownError
            self._primaries = tuple(primaries)
        # abort() takes each victim's commit mutex, which a commit blocked
        # on the structure gate may hold — deadlock if done under the gate
        for tx in victims:
            tx.abort()

    def restart_node(self, node_id: int) -> None:
        """Node recovery: load fragment replicas back from live peers,
        sharing the row objects they store (see ``Fragment.load_from``)."""
        node = self.datanodes[node_id]
        if node.alive:
            return
        with self._structure_gate.write_locked():
            for (table, pid), frag in node.fragments.items():
                survivors = self.live_replicas(pid)
                if not survivors:
                    raise ClusterDownError(
                        f"cannot recover node {node_id}: partition {pid} has no "
                        "live replica (use crash recovery)"
                    )
                frag.load_from(self.datanodes[survivors[0]].fragment(table, pid))
            node.alive = True

    def is_available(self) -> bool:
        """True if every partition has at least one live replica."""
        return all(self.live_replicas(pid)
                   for pid in range(self.config.num_partitions))

    def live_nodes(self) -> list[int]:
        return [n.node_id for n in self.datanodes if n.alive]

    # -- epochs and recovery ---------------------------------------------------------------

    def complete_epoch(self) -> int:
        """Global checkpoint: transactions committed so far become durable."""
        with self._structure_gate.write_locked():
            self.completed_epoch = self.epoch
            self.epoch += 1
            return self.completed_epoch

    def local_checkpoint(self) -> None:
        """Snapshot fragment state (bounds redo-log replay at recovery)."""
        with self._structure_gate.write_locked():
            self._lcp_snapshot = {
                (table, pid): self._primary_fragment(table, pid).snapshot()
                for table in self._schemas
                for pid in range(self.config.num_partitions)}
            self._lcp_watermark = len(self._commit_log)

    def crash_and_recover(self) -> int:
        """Whole-cluster crash + recovery to the last completed epoch.

        Restores the last local checkpoint, *undoes* checkpointed
        transactions from epochs newer than the last completed one, then
        *redoes* logged transactions up to it. Returns the epoch recovered
        to. Transactions committed in the in-flight epoch are lost — the
        documented NDB semantic.
        """
        with self._structure_gate.write_locked():
            with self._registry_lock:
                victims = list(self._active_txs.values())
            # mark first (fences lock acquires and _apply_commit); the
            # mutex-taking abort() happens after the gate, see node failover
            self._locks.abort_waiters(victims)
            target = self.completed_epoch
            # 1. restore LCP (or empty state)
            base: dict[tuple[str, int], dict] = self._lcp_snapshot or {}
            for table in self._schemas:
                for pid in range(self.config.num_partitions):
                    rows = base.get((table, pid), {})
                    for node_id in self._replicas[pid]:
                        node = self.datanodes[node_id]
                        node.alive = True
                        node.fragment(table, pid).load(rows)
            log = self._commit_log.snapshot()
            # 2. undo checkpointed transactions from incomplete epochs
            for record in reversed(log[: self._lcp_watermark]):
                if record.epoch > target:
                    self._restore(reversed(record.writes), undo=True)
            # 3. redo post-checkpoint transactions up to the target epoch
            for record in log[self._lcp_watermark:]:
                if record.epoch <= target:
                    self._restore(record.writes, undo=False)
            self._commit_log.replace([r for r in log if r.epoch <= target])
            # the checkpoint may hold undone writes: replay from empty next
            self._lcp_snapshot = None
            self._lcp_watermark = 0
            self.epoch = target + 1
            self._primaries = self._preferred_primaries()
        for tx in victims:
            tx.abort()
        return target

    def _restore(self, writes: Iterable[WriteRecord], undo: bool) -> None:
        """Force every replica of each write's row to its before (undo)
        or after (redo) image, which all of them then share."""
        for write in writes:
            image = write.before if undo else write.after
            for node_id in self._replicas[write.partition_id]:
                frag = self.datanodes[node_id].fragment(write.table, write.partition_id)
                frag.apply_restore(write.pk, image)

    # -- introspection ---------------------------------------------------------------------

    def table_size(self, table: str) -> int:
        """Total committed rows across all partitions."""
        self.schema(table)
        return sum(
            len(self._primary_fragment(table, pid))
            for pid in range(self.config.num_partitions)
        )

    def partition_sizes(self, table: str) -> dict[int, int]:
        self.schema(table)
        return {
            pid: len(self._primary_fragment(table, pid))
            for pid in range(self.config.num_partitions)
        }
