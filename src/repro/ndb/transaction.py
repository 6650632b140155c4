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

import enum
import functools
import itertools
import operator
import threading
import time
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from repro.errors import (
    DuplicateKeyError,
    NoSuchRowError,
    SchemaError,
    TransactionAbortedError,
    TransactionError,
)
from repro.metrics.tracing import span
from repro.ndb.fragment import Fragment
from repro.ndb.locks import LockMode
from repro.ndb.stats import AccessEvent, AccessKind, AccessStats

Predicate = Optional[Callable[[Mapping[str, Any]], bool]]


class TxState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class _Write(NamedTuple):
    """A buffered row mutation of a row on shard ``pid``: 'insert' (the
    row is not committed, so a delete cancels it), 'update' or 'delete'.
    ``row`` is this transaction's own dict, which the commit stores as
    is."""

    op: str
    row: Optional[dict[str, Any]]
    pid: int


class _ScanPlan(NamedTuple):
    """One scan's part on one shard: the table, the shard, how the shard
    hands over its candidates (the :class:`Fragment` method ``lookup``
    called with ``args``, predicate applied; with ``keys=True`` their
    pks), the predicate, and the scan's range — ``shard_of(pk)`` is the
    shard a row of the table lies on when the scan covers it, else None
    — over which buffered writes merge. A pruned scan is one plan, an
    all-shard scan one plan per shard."""

    table: str
    schema: Any
    shard: int
    lookup: Callable[..., list[Any]]
    args: tuple[Any, ...]
    predicate: Predicate
    shard_of: Callable[[tuple[Any, ...]], Optional[int]]


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

    def _check_granted(self) -> None:
        """:meth:`_check_active` after a lock acquire. An abort (a
        coordinator failover, from another thread) that ran while this
        thread was on its way into the lock manager has already released
        what the transaction held, so a lock granted after it would be
        kept forever: release it here before raising."""
        if self.state is not TxState.ACTIVE:
            self._cluster._locks.release_all(self)
            self._check_active()

    def _lock(self, table: str, pk: tuple[Any, ...], mode: LockMode) -> None:
        if mode is not LockMode.READ_COMMITTED:
            self._cluster._locks.acquire(self, (table, pk), mode)
            self.stats.rows_locked += 1
        self._check_granted()

    def _lock_many(self, mode: LockMode, keys: Sequence[tuple[str, Any]],
                   modes: Optional[Sequence[LockMode]] = None) -> None:
        """Lock a batch of ``(table, pk)`` keys in the given
        (deadlock-free) order.

        With ``modes`` each key gets its own mode; READ_COMMITTED entries
        take no lock. One ``LockManager.acquire_many`` — the only one.
        """
        if modes is None:
            wanted = 0 if mode is LockMode.READ_COMMITTED else len(keys)
        else:
            wanted = len(modes) - modes.count(LockMode.READ_COMMITTED)
        if not wanted:
            return
        # hfs: allow(HFS106, reason=DAL primitive; acquire_many's docstring contract requires keys already in the deadlock-free total order, linted at caller sites)
        self._cluster._locks.acquire_many(self, keys, mode, modes=modes)
        self.stats.rows_locked += wanted
        self._check_granted()

    def _buffer(self, table: str, pk: tuple[Any, ...], pid: int,
                op: Optional[str], row: Optional[dict[str, Any]] = None) -> None:
        """Set (or with ``op=None`` cancel) the pending write of one row."""
        if op is None:
            del self._writes[(table, pk)]
            del self._table_writes[table][pk]
        else:
            write = self._writes[(table, pk)] = _Write(op, row, pid)
            self._table_writes.setdefault(table, {})[pk] = write
        self._participants.add(self._cluster._primary_node(pid))

    def _shards_of(self, schema: Any, pks: Sequence[tuple]) -> list[int]:
        """The shard of each of ``pks`` (rows of ``schema``'s table)."""
        positions = schema.partition_positions
        shard_of = self._cluster._pmap.partition_of
        if len(positions) == 1:  # the partition values are a slice
            [p] = positions
            return [shard_of(pk[p:p + 1]) for pk in pks]
        return [shard_of([pk[i] for i in positions]) for pk in pks]

    def _record(self, kind: AccessKind, table: str, partitions: Sequence[int],
                rows: int, locked: bool) -> None:
        """Record one read round trip as an :class:`AccessEvent`."""
        # the pid→primary table is one tuple the cluster replaces whole on
        # a placement change, so one read of it serves the whole event
        primaries = self._cluster.primary_table()
        groups = self._cluster.group_table()
        pids = set(partitions)
        self.stats.record(AccessEvent(
            kind, table, tuple(partitions),
            tuple(sorted(set(map(primaries.__getitem__, pids)))),
            self.coordinator, rows, locked, False,
            tuple(sorted(set(map(groups.__getitem__, pids))))))

    # -- reads -------------------------------------------------------------------

    def read(self, table: str, key: Mapping[str, Any] | Sequence[Any],
             lock: LockMode = LockMode.READ_COMMITTED) -> Optional[dict[str, Any]]:
        """Primary-key read. Returns a row copy or None."""
        self._check_active()
        schema = self._cluster.schema(table)
        pk = schema.pk_tuple(key)
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, lock)
        started = time.perf_counter()
        self._cluster._round_trip()
        row = self._committed_or_buffered(table, pid, pk)
        self._cluster._shard_op_seconds(pid, AccessKind.PK.value).observe(
            time.perf_counter() - started)
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
        (:meth:`_visit_shards`): the whole batch costs one parallel round
        trip, not one per key. Exactly one
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
        pids = self._shards_of(schema, pks)
        plans = [self._plan_pruned(t, values) for t, values in scans or ()]
        if locks is not None:
            if len(locks) != len(pks):
                raise SchemaError(
                    f"locks must parallel keys: {len(locks)} != {len(pks)}")
            any_locked = locks.count(LockMode.READ_COMMITTED) != len(locks)
        else:
            any_locked = lock is not LockMode.READ_COMMITTED
        if any_locked:
            # hfs: allow(HFS106, reason=DAL primitive; read_batch callers own the pk sort contract (resolver passes root-down path order))
            self._lock_many(lock, [(table, pk) for pk in pks], modes=locks)
        rows: list[Optional[dict[str, Any]]] = [None] * len(pks)
        by_shard: dict[int, list[int]] = {}
        for i, pid in enumerate(pids):
            by_shard.setdefault(pid, []).append(i)

        fetch = functools.partial(self._fetch, table, pks, rows)
        tables = ("+".join(dict.fromkeys([table, *(p.table for p in plans)]))
                  if plans else table)
        # the riding scans merge their writes like an unlocked ppis_batch
        scanned = self._visit_shards(AccessKind.BATCH_PK, tables, plans,
                                     keys=False, by_shard=by_shard,
                                     fetch=fetch)
        found = len(rows) - rows.count(None)
        self._record(AccessKind.BATCH_PK, tables,
                     pids + [plan.shard for plan in plans],
                     rows=found + sum(map(len, scanned)), locked=any_locked)
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
        [rows] = self._scan(AccessKind.PPIS, table, [self._plan_pruned(
            table, partition_values, predicate)], lock)
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
        return self._scan(
            AccessKind.PPIS, "+".join(dict.fromkeys(t for t, _ in scans)),
            [self._plan_pruned(table, values) for table, values in scans],
            lock)

    def index_scan(self, table: str, index_name: str, values: Sequence[Any],
                   predicate: Predicate = None,
                   lock: LockMode = LockMode.READ_COMMITTED) -> list[dict[str, Any]]:
        """Index scan in which *all* shards participate (expensive); the
        partition's hash index narrows each shard's candidates, so it is
        cheaper than a full scan *per shard*."""
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

        [rows] = self._scan(AccessKind.INDEX_SCAN, table, self._plan_all_shards(
            table, Fragment.index_lookup, (index_name, key, matches),
            matches), lock, whole=True)
        return rows

    def full_scan(self, table: str, predicate: Predicate = None) -> list[dict[str, Any]]:
        """Full table scan across every shard (most expensive access path)."""
        self._check_active()
        [rows] = self._scan(AccessKind.FULL_SCAN, table, self._plan_all_shards(
            table, Fragment.scan, (predicate,), predicate),
            LockMode.READ_COMMITTED, whole=True)
        return rows

    # -- the scan pipeline: plan, one shard visit, one lock-then-re-read ----------

    def _plan_pruned(self, table: str, partition_values: Mapping[str, Any],
                     predicate: Predicate = None) -> _ScanPlan:
        """A scan pruned to one shard by its partition-key values; one
        that is not pruned raises here, before anything is locked or
        read."""
        schema = self._cluster.schema(table)
        pvals = schema.scan_partition_values(partition_values)
        pid = self._cluster._pmap.partition_of(pvals)
        from_pk = schema.partition_values_from_pk
        return _ScanPlan(
            table, schema, pid, Fragment.partition_lookup, (pvals, predicate),
            predicate, lambda pk: pid if from_pk(pk) == pvals else None)

    def _plan_all_shards(self, table: str,
                         lookup: Callable[..., list[dict[str, Any]]],
                         args: tuple[Any, ...],
                         predicate: Predicate) -> list[_ScanPlan]:
        """A scan every shard takes part in: one plan per shard."""
        schema = self._cluster.schema(table)
        shard_of = functools.partial(self._cluster.partition_of, table)
        return [_ScanPlan(table, schema, pid, lookup, args, predicate,
                          shard_of)
                for pid in range(self._cluster.config.num_partitions)]

    def _scan(self, kind: AccessKind, tables: str, plans: Sequence[_ScanPlan],
              lock: LockMode, whole: bool = False,
              ) -> list[list[dict[str, Any]]]:
        """Run scan plans as one access — one visit of their shards, then,
        for a locking scan, one lock-then-re-read — and record its one
        event naming ``tables`` (``+``-joined) and every shard. Returns
        each plan's rows, or with ``whole`` (the plans are the shards of
        one scan) the scan's."""
        locked = lock is not LockMode.READ_COMMITTED
        # a locking scan's visit finds its candidates' keys; it copies
        # the rows and merges its buffered writes after the lock
        results = self._visit_shards(kind, tables, plans, keys=locked)
        if locked:
            results = self._lock_and_reread(plans, results, lock, whole)
        elif whole:
            results = [list(itertools.chain.from_iterable(results))]
        self._record(kind, tables, [plan.shard for plan in plans],
                     rows=sum(map(len, results)), locked=locked)
        return results

    def _visit_shards(self, kind: AccessKind, tables: str,
                      plans: Sequence[_ScanPlan], keys: bool,
                      by_shard: Optional[Mapping[int, list[int]]] = None,
                      fetch: Optional[Callable[[int, list[int]], None]] = None,
                      ) -> list[list[Any]]:
        """One round trip to every shard the plans (and ``by_shard``, a
        batch's primary-key indexes by shard, which ``fetch(pid,
        indexes)`` reads first on their shard) name. Returns each plan's
        rows, or with ``keys`` (a locking scan's candidate pass) their
        pks.

        The cluster's :meth:`~NDBCluster._run_on_shards` visits the
        shards: in a plain loop when they stay on this thread, as one
        thunk per shard only on the shard executor. Each visit is timed
        as one ``ndb_shard_op_seconds{kind}``.
        """
        by_shard = by_shard or {}
        work: dict[int, list[int]] = {}
        for pid in by_shard:
            work[pid] = []
        for i, plan in enumerate(plans):
            work.setdefault(plan.shard, []).append(i)
        found: list[Any] = [None] * len(plans)
        cluster = self._cluster
        hists = cluster._shard_op_hists[kind.value]

        def visit(pid: int, indexes: list[int]) -> None:
            started = time.perf_counter()
            cluster._round_trip()
            keyed = by_shard.get(pid)
            if keyed is not None:
                fetch(pid, keyed)  # type: ignore[misc]
            for i in indexes:
                found[i] = self._plan_rows(plans[i], keys)
            hists[pid].observe(time.perf_counter() - started)

        cluster._run_on_shards(
            visit, work.items(),
            "shard_fetch" if kind is AccessKind.BATCH_PK else "shard_scan",
            table=tables)
        return found

    def _fetch(self, table: str, pks: Sequence[tuple[Any, ...]],
               rows: list[Optional[dict[str, Any]]], pid: int,
               indexes: list[int]) -> None:
        """``read_batch``'s keys ``indexes`` on shard ``pid``: copies from
        one read of the shard's primary fragment, with this transaction's
        buffered writes of them laid over (read-your-writes, as
        :meth:`_committed_or_buffered`)."""
        fragment = self._cluster._primary_fragment(table, pid)
        if len(indexes) == 1:
            # most shards of a batch hold one key; ``get`` then costs
            # well under half of a ``get_many`` of one
            [i] = indexes
            rows[i] = fragment.get(pks[i])
        else:
            for i, row in zip(indexes, fragment.get_many(
                    [pks[i] for i in indexes])):
                rows[i] = row
        writes = self._table_writes.get(table)
        if writes:
            for i in indexes:
                pending = writes.get(pks[i])
                if pending is not None:
                    rows[i] = (None if pending.row is None
                               else dict(pending.row))

    def _plan_rows(self, plan: _ScanPlan, keys: bool) -> list[Any]:
        """One plan's candidates, predicate applied: with ``keys`` their
        pks, else copies with this transaction's buffered writes of the
        plan's shard overlaid."""
        fragment = self._cluster._primary_fragment(plan.table, plan.shard)
        if keys:
            return plan.lookup(fragment, *plan.args, keys=True)
        return self._merge_writes(plan, plan.lookup(fragment, *plan.args),
                                  plan.shard)

    def _lock_and_reread(self, plans: Sequence[_ScanPlan],
                         found: list[list[tuple[Any, ...]]], lock: LockMode,
                         whole: bool) -> list[list[dict[str, Any]]]:
        """Lock every plan's candidate pks and read what is there under
        the locks — each row copied once, here: each scan's rows in pk
        order, then its buffered writes merged."""
        plan_pks = [sorted(pks) for pks in found]
        # one (table, pk) order over the whole batch — the order every
        # multi-row transaction locks in (§3.4) — whatever the request
        # order of the scans or the shards their rows live on; a row two
        # scans share is locked once but counted for each, as the same
        # scans one by one would count it. Within one table, (table, pk)
        # order is pk order.
        table = plans[0].table
        if all(plan.table == table for plan in plans):
            # the sorted runs merge in one pass; a shared pk goes once
            keys = [(table, pk) for pk in dict.fromkeys(sorted(
                itertools.chain.from_iterable(plan_pks)))]
        else:
            keys = sorted({(plan.table, pk)
                           for plan, pks in zip(plans, plan_pks)
                           for pk in pks})
        # hfs: allow(HFS106, reason=both branches build keys in sorted (table, pk) order; dict.fromkeys keeps the order of the sorted(...) it dedupes)
        self._lock_many(lock, keys)
        self.stats.rows_locked += sum(map(len, plan_pks)) - len(keys)
        # re-read: a row may have changed or gone before its lock
        fresh = [self._cluster._primary_fragment(plan.table, plan.shard)
                 .get_many(pks) for plan, pks in zip(plans, plan_pks)]
        if whole:  # the shards' rows, merged into one pk order
            fresh = [[row for _, row in sorted(
                zip(itertools.chain(*plan_pks), itertools.chain(*fresh)),
                key=operator.itemgetter(0))]]
        results = []
        for plan, rows in zip(plans, fresh):
            predicate = plan.predicate
            rows = [row for row in rows if row is not None
                    and (predicate is None or predicate(row))]
            results.append(self._merge_writes(plan, rows, None))
        return results

    # -- writes -----------------------------------------------------------------

    def insert(self, table: str, row: Mapping[str, Any]) -> None:
        """Buffer an insert; takes an X lock on the (future) primary key."""
        self._check_active()
        schema = self._cluster.schema(table)
        schema.validate_row(row)
        pk = schema.pk_of(row)
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, LockMode.EXCLUSIVE)
        pending = self._writes.get((table, pk))
        if pending is not None and pending.op != "delete":
            raise DuplicateKeyError(f"{table}:{pk} already written in this tx")
        if pending is None and self._current(table, pid, pk) is not None:
            raise DuplicateKeyError(f"{table}:{pk} already exists")
        # after a buffered delete the row is committed
        self._buffer(table, pk, pid, "insert" if pending is None else "update",
                     dict(row))

    def update(self, table: str, key: Mapping[str, Any] | Sequence[Any],
               changes: Mapping[str, Any]) -> None:
        """Buffer an update of some columns; X-locks the row."""
        self._check_active()
        schema = self._cluster.schema(table)
        pk = schema.pk_tuple(key)
        for col in changes:
            if col not in schema.column_set:
                raise SchemaError(f"unknown column {col!r} in {table!r}")
            if col in schema.primary_key:
                raise SchemaError(
                    f"cannot update pk column {col!r}; delete and re-insert "
                    "(HopsFS move does exactly this)"
                )
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, LockMode.EXCLUSIVE)
        current = self._current(table, pid, pk)
        if current is None:
            raise NoSuchRowError(f"{table}:{pk}")
        pending = self._writes.get((table, pk))
        op = "insert" if pending is not None and pending.op == "insert" else "update"
        self._buffer(table, pk, pid, op, {**current, **changes})

    def write(self, table: str, row: Mapping[str, Any]) -> None:
        """Upsert a full row (insert if absent, overwrite if present)."""
        self._check_active()
        schema = self._cluster.schema(table)
        schema.validate_row(row)
        pk = schema.pk_of(row)
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, LockMode.EXCLUSIVE)
        pending = self._writes.get((table, pk))
        if pending is not None:  # a buffered delete's row is committed
            op = "insert" if pending.op == "insert" else "update"
        else:
            op = "insert" if self._current(table, pid, pk) is None else "update"
        self._buffer(table, pk, pid, op, dict(row))

    def delete(self, table: str, key: Mapping[str, Any] | Sequence[Any],
               must_exist: bool = True) -> None:
        """Buffer a delete; X-locks the row. A missing row raises
        :class:`NoSuchRowError` with ``must_exist``, else is a no-op."""
        self._check_active()
        schema = self._cluster.schema(table)
        pk = schema.pk_tuple(key)
        pid = self._cluster.partition_of(table, pk)
        self._lock(table, pk, LockMode.EXCLUSIVE)
        if self._current(table, pid, pk) is None:
            if must_exist:
                raise NoSuchRowError(f"{table}:{pk}")
            return
        pending = self._writes.get((table, pk))
        # insert+delete inside one tx cancels out
        cancels = pending is not None and pending.op == "insert"
        self._buffer(table, pk, pid, None if cancels else "delete")

    def delete_batch(self, table: str,
                     keys: Sequence[Mapping[str, Any] | Sequence[Any]]) -> None:
        """``delete(table, key, must_exist=False)`` for each key, the X
        locks taken as one batch in the order given — the caller's
        deadlock-free order, as for :meth:`read_batch`. The write analogue
        of ``read_batch``: the deletes are defined here and shipped with
        the commit, so the call costs no round trip."""
        self._check_active()
        schema = self._cluster.schema(table)
        pks = [schema.pk_tuple(key) for key in keys]
        # hfs: allow(HFS106, reason=DAL primitive; delete_batch callers own the pk sort contract, linted at caller sites)
        self._lock_many(LockMode.EXCLUSIVE, [(table, pk) for pk in pks])
        pids = self._shards_of(schema, pks)
        by_shard: dict[int, list[tuple[Any, ...]]] = {}
        for pk, pid in zip(pks, pids):
            by_shard.setdefault(pid, []).append(pk)
        # which keys exist: one round of each shard's primary fragment
        committed: dict[tuple[Any, ...], Any] = {}
        for pid, shard_pks in by_shard.items():
            committed.update(zip(shard_pks, self._cluster._primary_fragment(
                table, pid).peek_many(shard_pks)))
        # buffered in the order given, as ``delete`` one by one would
        writes = self._writes
        table_writes = self._table_writes.setdefault(table, {})
        # a ``_Write`` is immutable: one per shard serves all its deletes
        deletes = {pid: _Write("delete", None, pid) for pid in by_shard}
        touched = set()
        for pk, pid in zip(pks, pids):
            key = (table, pk)
            # the row as this transaction sees it (``_current``): its
            # buffered write, else the committed row
            pending = writes.get(key)
            if (committed[pk] if pending is None else pending.row) is None:
                continue
            if pending is not None and pending.op == "insert":
                del writes[key]  # insert+delete inside one tx cancels out
                del table_writes[pk]
            else:
                writes[key] = table_writes[pk] = deletes[pid]
            touched.add(pid)
        primary_node = self._cluster._primary_node
        self._participants.update(primary_node(pid) for pid in touched)

    # -- transaction end -----------------------------------------------------------

    def commit(self) -> None:
        """Two-phase commit: flush the write batch to all replicas. A
        read-only transaction has nothing to flush: it only ends
        (:meth:`NDBCluster._end_read_only`), with no phase span, which
        would time nothing but the lock release."""
        if self._writes:
            with self._mutex, span("commit", writes=len(self._writes),
                                   participants=len(self._participants)):
                self._commit_inner(self._cluster._apply_commit)
        else:
            with self._mutex:
                self._commit_inner(self._cluster._end_read_only)

    def _commit_inner(self, end: Callable[["Transaction"], None]) -> None:
        self._check_active()
        try:
            end(self)
        except Exception:
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

    def _current(self, table: str, pid: int,
                 pk: tuple[Any, ...]) -> Optional[dict[str, Any]]:
        """The row as this transaction sees it — its buffered write, else
        the committed row — uncopied, so only to check or to copy."""
        pending = self._writes.get((table, pk))
        if pending is not None:
            return pending.row
        return self._cluster._primary_fragment(table, pid).peek(pk)

    def _committed_or_buffered(self, table: str, pid: int,
                               pk: tuple[Any, ...]) -> Optional[dict[str, Any]]:
        """A copy of :meth:`_current` (what a read hands out)."""
        row = self._current(table, pid, pk)
        return dict(row) if row is not None else None

    def _merge_writes(self, plan: _ScanPlan, rows: list[dict[str, Any]],
                      shard: Optional[int]) -> list[dict[str, Any]]:
        """Overlay this transaction's buffered writes of the plan's table
        on the committed ``rows`` of a scan (read-your-writes).

        Only writes in the plan's range count, and with ``shard`` only
        those on that shard; a scan with none of them gets ``rows`` back
        untouched. Updated rows keep their place, inserted rows follow in
        write order, deleted rows and rows that stopped matching the
        plan's predicate drop out.
        """
        writes = self._table_writes.get(plan.table)
        if not writes:
            return rows
        shard_of = plan.shard_of
        pendings = [(pk, pending) for pk, pending in writes.items()
                    if (on := shard_of(pk)) is not None
                    and (shard is None or on == shard)]
        if not pendings:
            return rows
        pk_of = plan.schema.pk_of
        predicate = plan.predicate
        merged = {pk_of(row): row for row in rows}
        for pk, pending in pendings:
            if pending.op != "delete" and (
                    predicate is None or predicate(pending.row)):  # type: ignore[arg-type]
                merged[pk] = dict(pending.row)  # type: ignore[arg-type]
            else:
                merged.pop(pk, None)
        return list(merged.values())

