"""Transactions: buffered writes, row locks, 2PC apply, access statistics.

Semantics implemented (paper §2.2.2, §5):

* **read-committed isolation** — unlocked reads observe the latest
  committed row image; a transaction's own buffered writes are visible to
  itself (read-your-writes);
* ``SHARED``/``EXCLUSIVE`` row locks acquired at read/write time and held
  to commit/abort (strict two-phase locking when the caller, like HopsFS,
  reads everything up front at the strongest needed level);
* writes are buffered in a per-transaction cache and transferred to the
  datanodes in one batch at commit (HopsFS' update phase);
* commit applies each write to **every live replica** of the row's
  partition and appends a redo/undo record stamped with the current epoch.

Every round trip is recorded as an :class:`AccessEvent` so upper layers
can verify access-path usage and feed the performance model.
"""

from __future__ import annotations

import contextlib
import enum
import threading
import time
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import (
    DuplicateKeyError,
    NoSuchRowError,
    SchemaError,
    TransactionAbortedError,
    TransactionError,
)
from repro.metrics.tracing import span
from repro.ndb.locks import LockMode
from repro.ndb.stats import AccessEvent, AccessKind, AccessStats

Predicate = Optional[Callable[[Mapping[str, Any]], bool]]

#: stands in for a worker-side span where none is recorded
_UNTRACED = contextlib.nullcontext()


class TxState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class _Write:
    """A buffered row mutation ('insert' | 'update' | 'delete')."""

    __slots__ = ("op", "row")

    def __init__(self, op: str, row: Optional[dict[str, Any]]) -> None:
        self.op = op
        self.row = row


class Transaction:
    """One database transaction. Not thread safe; owned by a single caller
    thread (the cluster may abort it from another thread on node failure).
    """

    def __init__(self, cluster: "repro.ndb.cluster.NDBCluster", tx_id: int,
                 coordinator: int) -> None:
        self._cluster = cluster
        self.tx_id = tx_id
        self.coordinator = coordinator
        self.state = TxState.ACTIVE  # guarded_by: _mutex [writes]
        self.stats = AccessStats()
        self._writes: dict[tuple[str, tuple[Any, ...]], _Write] = {}  # guarded_by: owner-thread
        #: the same writes by table, so a scan merges only its own table's
        # guarded_by: owner-thread
        self._table_writes: dict[str, dict[tuple[Any, ...], _Write]] = {}
        self._participants: set[int] = {coordinator}  # guarded_by: owner-thread
        self._mutex = threading.Lock()  # serializes commit vs external abort

    # -- helpers ---------------------------------------------------------------

    def _check_active(self) -> None:
        if self.state is TxState.ABORTED:
            raise TransactionAbortedError(f"tx {self.tx_id} was aborted")
        if self.state is TxState.COMMITTED:
            raise TransactionAbortedError(f"tx {self.tx_id} already committed")

    def _lock(self, table: str, pk: tuple[Any, ...], mode: LockMode) -> None:
        if mode is LockMode.READ_COMMITTED:
            return
        self._cluster._locks.acquire(self, (table, pk), mode)
        self.stats.rows_locked += 1

    def _lock_many(self, table: str, pks: Sequence[tuple[Any, ...]],
                   mode: LockMode,
                   modes: Optional[Sequence[LockMode]] = None) -> None:
        """Lock a batch of pks in the given (deadlock-free) order.

        With ``modes`` each pk gets its own mode; READ_COMMITTED entries
        take no lock. One stripe-grouped ``LockManager.acquire_many``.
        """
        if modes is None:
            wanted = 0 if mode is LockMode.READ_COMMITTED else len(pks)
        else:
            wanted = sum(1 for m in modes
                         if m is not LockMode.READ_COMMITTED)
        if not wanted:
            return
        # hfs: allow(HFS106, reason=DAL primitive; acquire_many's docstring contract requires keys already in the deadlock-free total order, linted at caller sites)
        self._cluster._locks.acquire_many(
            self, [(table, pk) for pk in pks], mode, modes=modes)
        self.stats.rows_locked += wanted
        self._check_active()

    def _buffered(self, table: str, pk: tuple[Any, ...]) -> Optional[_Write]:
        return self._writes.get((table, pk))

    def _buffer(self, table: str, pk: tuple[Any, ...], pid: int,
                write: Optional[_Write]) -> None:
        """Set (or with ``None`` cancel) the pending write of one row."""
        if write is None:
            del self._writes[(table, pk)]
            del self._table_writes[table][pk]
        else:
            self._writes[(table, pk)] = write
            self._table_writes.setdefault(table, {})[pk] = write
        self._participants.add(self._cluster._primary_node(pid))

    def _record(self, kind: AccessKind, table: str, partitions: Sequence[int],
                rows: int, locked: bool, write: bool = False) -> None:
        # the pid→primary table is cached cluster-side and invalidated on
        # placement changes; rebuilding it per event was a per-round-trip
        # cost on the hottest stats path
        primary_table = self._cluster.primary_table()
        pid_set = set(partitions)
        nodes = tuple(sorted({primary_table[pid] for pid in pid_set}))
        groups = tuple(sorted({self._cluster.node_group_of(pid)
                               for pid in pid_set}))
        self.stats.record(
            AccessEvent(
                kind=kind,
                table=table,
                partitions=tuple(partitions),
                nodes=nodes,
                coordinator=self.coordinator,
                rows=rows,
                locked=locked,
                write=write,
                node_groups=groups,
            )
        )

    def _observe_shard(self, kind: str, shard: Any, started: float) -> None:
        """Fold one shard-local round trip into ndb_shard_op_seconds."""
        self._cluster._shard_op_seconds(shard, kind).observe(
            time.perf_counter() - started)

    # -- reads -------------------------------------------------------------------

    def read(self, table: str, key: Mapping[str, Any] | Sequence[Any],
             lock: LockMode = LockMode.READ_COMMITTED) -> Optional[dict[str, Any]]:
        """Primary-key read. Returns a row copy or None."""
        self._check_active()
        schema = self._cluster.schema(table)
        pk = schema.pk_tuple(key)
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, lock)
        self._check_active()
        started = time.perf_counter()
        self._cluster._round_trip()
        row = self._committed_or_buffered(table, pid, pk)
        self._observe_shard(AccessKind.PK.value, pid, started)
        self._record(AccessKind.PK, table, [pid], rows=1 if row else 0,
                     locked=lock is not LockMode.READ_COMMITTED)
        return row

    def read_batch(self, table: str, keys: Sequence[Mapping[str, Any] | Sequence[Any]],
                   lock: LockMode = LockMode.READ_COMMITTED,
                   locks: Optional[Sequence[LockMode]] = None,
                   *,
                   scans: Optional[Sequence[tuple[str, Mapping[str, Any]]]] = None,
                   commit: bool = False) -> Any:
        """Batched primary-key read: one round trip, parallel on the shards.

        Two phases. The *lock phase* (skipped entirely at READ_COMMITTED)
        acquires row locks strictly in the order the keys are given —
        callers are responsible for supplying a deadlock-free total order,
        as HopsFS does (§5, left-ordered depth-first traversal). ``locks``
        optionally gives a per-key mode (parallel to ``keys``), so a path
        resolve can read the whole path at READ_COMMITTED while locking
        only the parent and last components — in one round trip. The
        *fetch phase* then groups the keys by shard and visits the shards
        concurrently on the cluster's shard executor: the whole batch
        costs one parallel round trip, not one per key. Exactly one
        BATCH_PK access event is recorded per call, whatever the fan-out.

        ``scans`` and ``commit`` are the contract's
        (:class:`repro.dal.driver.DALTransaction`): each shard's visit of
        the fetch phase also runs the read-committed scans pruned to it —
        after the lock phase, so every lock of ``keys`` is held before any
        scan reads — and the one event names every table and shard and
        counts every row; ``commit=True`` commits the read-only
        transaction, releasing its locks, before the call returns (one
        with buffered writes is refused before anything is locked).
        """
        self._check_active()
        if commit and self._writes:
            raise TransactionError(
                f"tx {self.tx_id}: read_batch(commit=True) ends a read-only "
                "transaction; this one has buffered writes")
        schema = self._cluster.schema(table)
        pks = [schema.pk_tuple(key) for key in keys]
        pids = [self._cluster.partition_of(table, pk) for pk in pks]
        plans = self._plan_scans(scans) if scans else []
        if locks is not None:
            if len(locks) != len(pks):
                raise SchemaError(
                    f"locks must parallel keys: {len(locks)} != {len(pks)}")
            any_locked = any(m is not LockMode.READ_COMMITTED for m in locks)
            # hfs: allow(HFS106, reason=DAL primitive; read_batch callers own the pk sort contract (resolver passes root-down path order))
            self._lock_many(table, pks, lock, modes=locks)
        else:
            any_locked = lock is not LockMode.READ_COMMITTED
            # hfs: allow(HFS106, reason=DAL primitive; read_batch callers own the pk sort contract (resolver passes root-down path order))
            self._lock_many(table, pks, lock)
        rows: list[Optional[dict[str, Any]]] = [None] * len(pks)
        scanned: list[list[dict[str, Any]]] = [[] for _ in plans]
        by_shard: dict[int, list[int]] = {}
        for i, pid in enumerate(pids):
            by_shard.setdefault(pid, []).append(i)
        scans_by_shard: dict[int, list[int]] = {}
        for i, plan in enumerate(plans):
            scans_by_shard.setdefault(plan[3], []).append(i)
            by_shard.setdefault(plan[3], [])

        # Worker-side ``shard_fetch`` spans exist to attribute executor-
        # thread work back to the submitting operation; when the fan-out
        # runs inline the enclosing span plus the BATCH_PK event's shard
        # label already cover it, so the hot serial path skips the span
        # allocations (per-shard timing still lands in
        # ``ndb_shard_op_seconds`` either way).
        traced_workers = (len(by_shard) > 1
                          and self._cluster.parallel_dispatch_enabled)

        def shard_fetch(pid: int, indexes: list[int]):
            def fetch() -> None:
                started = time.perf_counter()
                with (span("shard_fetch", shard=pid, table=table)
                      if traced_workers else _UNTRACED):
                    self._cluster._round_trip()
                    for i in indexes:
                        rows[i] = self._committed_or_buffered(table, pid,
                                                              pks[i])
                    for i in scans_by_shard.get(pid, ()):
                        scanned[i] = self._scan_planned(plans[i])
                self._observe_shard(AccessKind.BATCH_PK.value, pid, started)
            return fetch

        self._cluster._run_on_shards(
            [shard_fetch(pid, indexes) for pid, indexes in by_shard.items()])
        found = sum(1 for r in rows if r is not None)
        if plans:
            scan_rows = sum(map(len, scanned))
            self._record(AccessKind.BATCH_PK,
                         "+".join(dict.fromkeys(
                             [table, *(plan[0] for plan in plans)])),
                         pids + [plan[3] for plan in plans],
                         rows=found + scan_rows, locked=any_locked)
            if any_locked:
                # the event has one ``locked`` flag; the scans read committed
                self.stats.rows_locked -= scan_rows
        else:
            self._record(AccessKind.BATCH_PK, table, pids, rows=found,
                         locked=any_locked)
        if commit:
            self.commit()
        return rows if scans is None else (rows, scanned)

    def ppis(self, table: str, partition_values: Mapping[str, Any],
             predicate: Predicate = None,
             lock: LockMode = LockMode.READ_COMMITTED,
             columns: Optional[Sequence[str]] = None) -> list[dict[str, Any]]:
        """Partition-pruned index scan: touches exactly one shard.

        ``partition_values`` must name exactly the table's partition-key
        columns; rows returned carry those values *and* pass the optional
        predicate. ``columns`` projects the result (the subtree protocol
        reads only inode ids, §6.1 phase 2).

        Cost: O(rows carrying those values) — the shard's partition-key
        index hands over the candidates, so the predicate runs on the
        directory's children (the file's blocks), never on the shard's
        other rows — plus this transaction's buffered writes *of this
        table*. A locking scan takes its row locks as one pk-ordered
        batch and re-reads the batch once.
        """
        self._check_active()
        schema = self._cluster.schema(table)
        pvals = schema.scan_partition_values(partition_values)
        pid = self._cluster._pmap.partition_of(pvals)
        started = time.perf_counter()
        self._cluster._round_trip()
        frag = self._cluster._primary_fragment(table, pid)
        rows = frag.partition_lookup(pvals, predicate)
        if lock is not LockMode.READ_COMMITTED:
            # pk order keeps concurrent locking scans deadlock-free (§3.4)
            pks = sorted(map(schema.pk_of, rows))
            self._lock_many(table, pks, lock)
            # re-read: a row may have changed or gone before its lock
            rows = [fresh for fresh in frag.get_many(pks)
                    if fresh is not None
                    and (predicate is None or predicate(fresh))]
        rows = self._merge_pruned(table, schema, pvals, rows, predicate)
        self._observe_shard(AccessKind.PPIS.value, pid, started)
        self._record(AccessKind.PPIS, table, [pid], rows=len(rows),
                     locked=lock is not LockMode.READ_COMMITTED)
        return self._project(rows, columns)

    def ppis_batch(self, scans: Sequence[tuple[str, Mapping[str, Any]]],
                   lock: LockMode = LockMode.READ_COMMITTED,
                   ) -> list[list[dict[str, Any]]]:
        """A batch of partition-pruned scans: one round trip.

        ``scans`` is a sequence of ``(table, partition_values)`` pairs,
        any tables; the result holds, in request order, exactly what
        ``ppis(table, partition_values, lock=lock)`` would have returned
        for each — this transaction's buffered writes included. It is
        the scan analogue of :meth:`read_batch` (NDB defines the
        operations locally and ships them on one ``execute()``): the
        scans are grouped by shard, the shards are visited concurrently,
        and the whole batch records exactly one PPIS access event naming
        every scanned table and shard. A locking batch then takes the
        candidates of *all* its scans as one ``(table, pk)``-ordered lock
        batch and re-reads them once under their locks. An empty batch
        defines no operation and costs nothing.
        """
        self._check_active()
        if not scans:
            return []
        locked = lock is not LockMode.READ_COMMITTED
        plans = self._plan_scans(scans)
        by_shard: dict[int, list[int]] = {}
        for i, plan in enumerate(plans):
            by_shard.setdefault(plan[3], []).append(i)
        results: list[list[dict[str, Any]]] = [[] for _ in plans]

        def shard_scan(pid: int, indexes: list[int]):
            def scan() -> None:
                started = time.perf_counter()
                self._cluster._round_trip()
                for i in indexes:
                    # a locking batch merges after its re-read under lock
                    results[i] = self._scan_planned(plans[i],
                                                    merge=not locked)
                self._observe_shard(AccessKind.PPIS.value, pid, started)
            return scan

        self._cluster._run_on_shards(
            [shard_scan(pid, indexes) for pid, indexes in by_shard.items()])
        if locked:
            self._lock_scanned(plans, results, lock)
        self._record(AccessKind.PPIS,
                     "+".join(dict.fromkeys(plan[0] for plan in plans)),
                     [plan[3] for plan in plans],
                     rows=sum(map(len, results)), locked=locked)
        return results

    def _plan_scans(self, scans: Sequence[tuple[str, Mapping[str, Any]]],
                    ) -> list[tuple]:
        """``(table, schema, partition values, shard)`` of each pruned
        scan of a batch; a scan that is not pruned raises here, before
        the batch locks or reads anything."""
        plans = []
        for table, partition_values in scans:
            schema = self._cluster.schema(table)
            pvals = schema.scan_partition_values(partition_values)
            plans.append((table, schema, pvals,
                          self._cluster._pmap.partition_of(pvals)))
        return plans

    def _scan_planned(self, plan: tuple,
                      merge: bool = True) -> list[dict[str, Any]]:
        """The committed rows of one planned scan, with (``merge``) this
        transaction's buffered writes overlaid."""
        table, schema, pvals, pid = plan
        rows = self._cluster._primary_fragment(table, pid).partition_lookup(
            pvals)
        return self._merge_pruned(table, schema, pvals, rows) if merge \
            else rows

    def _lock_scanned(self, plans: list[tuple],
                      results: list[list[dict[str, Any]]],
                      lock: LockMode) -> None:
        """The locking half of :meth:`ppis_batch`: lock the candidate
        rows in ``results`` and replace them with what is there under
        the locks (each scan in pk order, as a locking ``ppis``)."""
        scan_pks = [sorted(map(plan[1].pk_of, rows))
                    for plan, rows in zip(plans, results, strict=True)]
        # one (table, pk) order over the whole batch — the order every
        # multi-row transaction locks in (§3.4) — whatever the request
        # order of the scans; a row two scans share is locked once
        keys = sorted(dict.fromkeys(
            (plan[0], pk)
            for plan, pks in zip(plans, scan_pks, strict=True) for pk in pks))
        self._cluster._locks.acquire_many(self, keys, lock)
        self.stats.rows_locked += sum(map(len, scan_pks))
        self._check_active()
        for i, ((table, schema, pvals, pid), pks) in enumerate(
                zip(plans, scan_pks, strict=True)):
            frag = self._cluster._primary_fragment(table, pid)
            # re-read: a row may have changed or gone before its lock
            fresh = [row for row in frag.get_many(pks) if row is not None]
            results[i] = self._merge_pruned(table, schema, pvals, fresh)

    def index_scan(self, table: str, index_name: str, values: Sequence[Any],
                   predicate: Predicate = None,
                   lock: LockMode = LockMode.READ_COMMITTED) -> list[dict[str, Any]]:
        """Index scan in which *all* shards participate (expensive)."""
        self._check_active()
        schema = self._cluster.schema(table)
        cols = schema.index_columns(index_name)
        if len(cols) != len(values):
            raise SchemaError(
                f"index {index_name!r} covers {len(cols)} columns, got {len(values)}"
            )
        key = tuple(values)

        def matches(row: Mapping[str, Any]) -> bool:
            if tuple(row[col] for col in cols) != key:
                return False
            return predicate is None or predicate(row)

        all_pids = range(self._cluster.config.num_partitions)
        rows = self._scan_shards(table, all_pids, matches, lock,
                                 index=(index_name, key),
                                 kind=AccessKind.INDEX_SCAN.value)
        self._record(AccessKind.INDEX_SCAN, table, list(all_pids), rows=len(rows),
                     locked=lock is not LockMode.READ_COMMITTED)
        return rows

    def full_scan(self, table: str, predicate: Predicate = None) -> list[dict[str, Any]]:
        """Full table scan across every shard (most expensive access path)."""
        self._check_active()
        all_pids = range(self._cluster.config.num_partitions)
        rows = self._scan_shards(table, all_pids,
                                 predicate if predicate else lambda _row: True,
                                 LockMode.READ_COMMITTED,
                                 kind=AccessKind.FULL_SCAN.value)
        self._record(AccessKind.FULL_SCAN, table, list(all_pids), rows=len(rows),
                     locked=False)
        return rows

    def _scan_shards(self, table: str, pids: Sequence[int],
                     predicate: Callable[[Mapping[str, Any]], bool],
                     lock: LockMode,
                     index: Optional[tuple[str, tuple[Any, ...]]] = None,
                     kind: str = AccessKind.INDEX_SCAN.value,
                     ) -> list[dict[str, Any]]:
        """Visit every shard of an all-shard scan, in parallel when unlocked.

        Locking scans run in two phases: an unlocked candidate gather over
        every shard, then per-row lock acquisition in global pk order —
        the one acquisition order every locking code path uses (§3.4).
        Locking shard-by-shard instead would order rows by (shard, pk)
        and deadlock against pk-ordered transactions.
        """

        def shard_visit(pid: int):
            def visit() -> list[dict[str, Any]]:
                started = time.perf_counter()
                with span("shard_scan", shard=pid, table=table):
                    self._cluster._round_trip()
                    result = self._scan_partition(table, pid, predicate,
                                                  index=index)
                self._observe_shard(kind, pid, started)
                return result
            return visit

        if lock is not LockMode.READ_COMMITTED:
            return self._locked_shard_scan(table, pids, predicate, lock,
                                           index=index, kind=kind)
        chunks = self._cluster._run_on_shards(
            [shard_visit(pid) for pid in pids])
        return [row for chunk in chunks for row in chunk]

    def _locked_shard_scan(self, table: str, pids: Sequence[int],
                           predicate: Callable[[Mapping[str, Any]], bool],
                           lock: LockMode,
                           index: Optional[tuple[str, tuple[Any, ...]]] = None,
                           kind: str = AccessKind.INDEX_SCAN.value,
                           ) -> list[dict[str, Any]]:
        """Locking all-shard scan: gather unlocked, then lock in pk order."""
        schema = self._cluster.schema(table)
        candidates: list[dict[str, Any]] = []
        for pid in pids:
            started = time.perf_counter()
            self._cluster._round_trip()
            frag = self._cluster._primary_fragment(table, pid)
            if index is not None:
                index_name, key = index
                candidates.extend(frag.index_lookup(index_name, key,
                                                    predicate))
            else:
                candidates.extend(frag.scan(predicate))
            self._observe_shard(kind, pid, started)
        # pk order keeps concurrent locking scans deadlock-free (§3.4)
        pks = sorted(map(schema.pk_of, candidates))
        self._lock_many(table, pks, lock)
        partition_of = self._cluster.partition_of
        rows = []
        for pk in pks:
            # re-read: a row may have changed or gone before its lock
            fresh = self._committed_row(table, partition_of(table, pk), pk)
            if fresh is not None and predicate(fresh):
                rows.append(fresh)
        pid_set = set(pids)
        return self._merge_writes(
            table, rows, predicate,
            lambda pk: partition_of(table, pk) in pid_set)

    # -- writes -----------------------------------------------------------------

    def insert(self, table: str, row: Mapping[str, Any]) -> None:
        """Buffer an insert; takes an X lock on the (future) primary key."""
        self._check_active()
        schema = self._cluster.schema(table)
        schema.validate_row(row)
        pk = schema.pk_of(row)
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, LockMode.EXCLUSIVE)
        self._check_active()
        pending = self._buffered(table, pk)
        if pending is not None and pending.op != "delete":
            raise DuplicateKeyError(f"{table}:{pk} already written in this tx")
        if pending is None and self._committed_row(table, pid, pk) is not None:
            raise DuplicateKeyError(f"{table}:{pk} already exists")
        self._buffer(table, pk, pid, _Write("insert", dict(row)))

    def update(self, table: str, key: Mapping[str, Any] | Sequence[Any],
               changes: Mapping[str, Any]) -> None:
        """Buffer an update of some columns; X-locks the row."""
        self._check_active()
        schema = self._cluster.schema(table)
        pk = schema.pk_tuple(key)
        for col in changes:
            if col not in schema.columns:
                raise SchemaError(f"unknown column {col!r} in {table!r}")
            if col in schema.primary_key:
                raise SchemaError(
                    f"cannot update pk column {col!r}; delete and re-insert "
                    "(HopsFS move does exactly this)"
                )
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, LockMode.EXCLUSIVE)
        self._check_active()
        current = self._committed_or_buffered(table, pid, pk)
        if current is None:
            raise NoSuchRowError(f"{table}:{pk}")
        merged = dict(current)
        merged.update(changes)
        pending = self._buffered(table, pk)
        op = "insert" if pending is not None and pending.op == "insert" else "update"
        self._buffer(table, pk, pid, _Write(op, merged))

    def write(self, table: str, row: Mapping[str, Any]) -> None:
        """Upsert a full row (insert if absent, overwrite if present)."""
        self._check_active()
        schema = self._cluster.schema(table)
        schema.validate_row(row)
        pk = schema.pk_of(row)
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, LockMode.EXCLUSIVE)
        self._check_active()
        exists = self._committed_or_buffered(table, pid, pk) is not None
        pending = self._buffered(table, pk)
        if exists:
            op = "insert" if pending is not None and pending.op == "insert" else "update"
        else:
            op = "insert"
        self._buffer(table, pk, pid, _Write(op, dict(row)))

    def delete(self, table: str, key: Mapping[str, Any] | Sequence[Any],
               must_exist: bool = True) -> None:
        """Buffer a delete; X-locks the row. A missing row raises
        :class:`NoSuchRowError` with ``must_exist``, else is a no-op."""
        self._check_active()
        schema = self._cluster.schema(table)
        pk = schema.pk_tuple(key)
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, LockMode.EXCLUSIVE)
        self._check_active()
        current = self._committed_or_buffered(table, pid, pk)
        if current is None:
            if must_exist:
                raise NoSuchRowError(f"{table}:{pk}")
            return
        pending = self._buffered(table, pk)
        # insert+delete inside one tx cancels out
        cancels = pending is not None and pending.op == "insert"
        self._buffer(table, pk, pid, None if cancels else _Write("delete", None))

    # -- transaction end -----------------------------------------------------------

    def commit(self) -> None:
        """Two-phase commit: flush the write batch to all replicas."""
        if self._writes:
            with self._mutex, span("commit", writes=len(self._writes),
                                   participants=len(self._participants)):
                self._commit_inner()
        else:
            # a read-only commit performs no 2PC flush round trip, so the
            # phase span would time nothing but lock release — skip the
            # capture on hot read paths
            with self._mutex:
                self._commit_inner()

    def _commit_inner(self) -> None:
        self._check_active()
        try:
            self._cluster._apply_commit(self)
        except Exception:
            # hfs: allow(HFS104, reason=both commit() branches call this with _mutex held; the split exists only to skip the phase span on read-only commits)
            self.state = TxState.ABORTED
            raise
        finally:
            self._cluster._locks.release_all(self)
            self._cluster._forget_tx(self)

    def abort(self) -> None:
        with self._mutex:
            if self.state is not TxState.ACTIVE:
                return
            self.state = TxState.ABORTED
            self._cluster._locks.release_all(self)
            self._cluster._forget_tx(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.state is TxState.ACTIVE:
            self.commit()
        elif self.state is TxState.ACTIVE:
            self.abort()

    # -- internals -------------------------------------------------------------------

    def _project(self, rows: list[dict[str, Any]],
                 columns: Optional[Sequence[str]]) -> list[dict[str, Any]]:
        if columns is None:
            return rows
        return [{col: row[col] for col in columns} for row in rows]

    def _committed_row(self, table: str, pid: int,
                       pk: tuple[Any, ...]) -> Optional[dict[str, Any]]:
        frag = self._cluster._primary_fragment(table, pid)
        return frag.get(pk)

    def _committed_or_buffered(self, table: str, pid: int,
                               pk: tuple[Any, ...]) -> Optional[dict[str, Any]]:
        pending = self._buffered(table, pk)
        if pending is not None:
            return dict(pending.row) if pending.row is not None else None
        return self._committed_row(table, pid, pk)

    def _scan_partition(self, table: str, pid: int,
                        predicate: Callable[[Mapping[str, Any]], bool],
                        index: Optional[tuple[str, tuple[Any, ...]]] = None,
                        ) -> list[dict[str, Any]]:
        """One shard's part of an unlocked all-shard scan.

        With ``index`` the partition's hash index narrows the candidate
        rows (an index scan is cheaper than a full scan *per shard*, even
        though both touch every shard).
        """
        frag = self._cluster._primary_fragment(table, pid)
        if index is not None:
            index_name, key = index
            rows = frag.index_lookup(index_name, key, predicate)
        else:
            rows = frag.scan(predicate)
        partition_of = self._cluster.partition_of
        return self._merge_writes(
            table, rows, predicate,
            lambda pk: partition_of(table, pk) == pid)

    def _merge_pruned(self, table: str, schema: Any, pvals: tuple[Any, ...],
                      rows: list[dict[str, Any]],
                      predicate: Predicate = None) -> list[dict[str, Any]]:
        """:meth:`_merge_writes` for a scan pruned to ``pvals``."""
        return self._merge_writes(
            table, rows, predicate,
            lambda pk: schema.partition_values_from_pk(pk) == pvals)

    def _merge_writes(self, table: str, rows: list[dict[str, Any]],
                      predicate: Predicate,
                      in_scope: Callable[[tuple[Any, ...]], bool],
                      ) -> list[dict[str, Any]]:
        """Overlay this transaction's buffered writes of ``table`` on the
        committed ``rows`` of a scan (read-your-writes).

        ``in_scope(pk)`` says whether a pk lies in the scanned range; a
        scan with no buffered write in range gets ``rows`` back untouched.
        Updated rows keep their place, inserted rows follow in write
        order, deleted rows and rows that stopped matching drop out.
        """
        pendings = [(pk, pending)
                    for pk, pending in self._table_writes.get(table, {}).items()
                    if in_scope(pk)]
        if not pendings:
            return rows
        pk_of = self._cluster.schema(table).pk_of
        merged = {pk_of(row): row for row in rows}
        for pk, pending in pendings:
            if pending.op != "delete" and (
                    predicate is None or predicate(pending.row)):  # type: ignore[arg-type]
                merged[pk] = dict(pending.row)  # type: ignore[arg-type]
            else:
                merged.pop(pk, None)
        return list(merged.values())
