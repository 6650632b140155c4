"""A deliberately simple single-node storage engine.

Purpose: prove that HopsFS namenode code is engine agnostic (it runs
unmodified against this driver), and act as the "no distribution
awareness" ablation baseline — the whole database is one shard, every
transaction serializes on one mutex, and partition-pruned scans degenerate
to scans of the single shard.

Isolation here is trivially serializable: a global re-entrant mutex is
held from ``begin`` to ``commit``/``abort``. That is far stronger (and far
less concurrent) than NDB; correctness-only.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping, Optional, Sequence, TypeVar

from repro.errors import (
    DuplicateKeyError,
    NoSuchRowError,
    NoSuchTableError,
    SchemaError,
    TransactionAbortedError,
    TransactionError,
)
from repro.dal.driver import DALDriver
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import span
from repro.ndb.locks import LockMode
from repro.ndb.schema import TableSchema
from repro.ndb.session import run_in_session
from repro.ndb.stats import AccessEvent, AccessKind, AccessStats
from repro.ndb.transaction import TxState

T = TypeVar("T")
Predicate = Optional[Callable[[Mapping[str, Any]], bool]]


class MemoryDriver(DALDriver):
    def __init__(self) -> None:
        self._schemas: dict[str, TableSchema] = {}
        self._tables: dict[str, dict[tuple[Any, ...], dict[str, Any]]] = {}
        self._mutex = threading.RLock()
        self.metrics = MetricsRegistry()

    def create_table(self, schema: TableSchema) -> None:
        if schema.name in self._schemas:
            raise SchemaError(f"table {schema.name!r} already exists")
        self._schemas[schema.name] = schema
        self._tables[schema.name] = {}

    def schema(self, table: str) -> TableSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise NoSuchTableError(table) from None

    def session(self) -> "MemorySession":
        return MemorySession(self)

    def table_size(self, table: str) -> int:
        self.schema(table)
        with self._mutex:
            return len(self._tables[table])

    @property
    def engine_name(self) -> str:
        return "memory(single-node)"

    def metrics_registry(self) -> MetricsRegistry:
        return self.metrics


class MemorySession:
    def __init__(self, driver: MemoryDriver) -> None:
        self._driver = driver
        self.metrics = driver.metrics
        self.stats = AccessStats()
        self.retries_used = 0

    def begin(self, hint: Optional[tuple[str, Mapping[str, Any]]] = None
              ) -> "MemoryTransaction":
        return MemoryTransaction(self._driver)

    def run(self, fn: Callable[["MemoryTransaction"], T],
            hint: Optional[tuple[str, Mapping[str, Any]]] = None,
            retries: int = 5) -> T:
        # the mutex rules lock conflicts out, but a callback can still
        # abort itself (a path hint found stale): same loop, same policy
        return run_in_session(self, fn, hint=hint, retries=retries)

    def reset_stats(self) -> AccessStats:
        stats, self.stats = self.stats, AccessStats()
        return stats


class MemoryTransaction:
    """Serializable-by-mutex transaction over the in-process tables."""

    def __init__(self, driver: MemoryDriver) -> None:
        self._driver = driver
        self.stats = AccessStats()
        self.coordinator = 0
        self._writes: dict[tuple[str, tuple[Any, ...]], tuple[str, Optional[dict]]] = {}
        self.state = TxState.ACTIVE
        driver._mutex.acquire()

    # -- helpers -------------------------------------------------------------

    def _check(self) -> None:
        if self.state is not TxState.ACTIVE:
            raise TransactionAbortedError("memory tx no longer active")

    def _record(self, kind: AccessKind, table: str, rows: int,
                locked: bool, write: bool = False) -> None:
        self.stats.record(
            AccessEvent(kind=kind, table=table, partitions=(0,), nodes=(0,),
                        coordinator=0, rows=rows, locked=locked, write=write)
        )

    def _current(self, table: str, pk: tuple[Any, ...]) -> Optional[dict]:
        pending = self._writes.get((table, pk))
        if pending is not None:
            op, row = pending
            return dict(row) if row is not None else None
        row = self._driver._tables[table].get(pk)
        return dict(row) if row is not None else None

    # -- reads ---------------------------------------------------------------

    def read(self, table: str, key: Any,
             lock: LockMode = LockMode.READ_COMMITTED) -> Optional[dict]:
        self._check()
        schema = self._driver.schema(table)
        pk = schema.pk_tuple(key)
        row = self._current(table, pk)
        self._record(AccessKind.PK, table, 1 if row else 0,
                     locked=lock is not LockMode.READ_COMMITTED)
        return row

    def read_batch(self, table: str, keys: Sequence[Any],
                   lock: LockMode = LockMode.READ_COMMITTED,
                   locks: Optional[Sequence[LockMode]] = None,
                   *,
                   scans: Optional[Sequence[tuple[str, Mapping[str, Any]]]] = None,
                   commit: bool = False) -> Any:
        self._check()
        if commit and self._writes:
            raise TransactionError(
                "read_batch(commit=True) ends a read-only transaction; "
                "this one has buffered writes")
        schema = self._driver.schema(table)
        if locks is not None and len(locks) != len(keys):
            raise SchemaError(
                f"locks must parallel keys: {len(locks)} != {len(keys)}")
        rows = [self._current(table, schema.pk_tuple(key)) for key in keys]
        scanned = [self._pruned(t, values) for t, values in scans or ()]
        if locks is not None:
            locked = any(m is not LockMode.READ_COMMITTED for m in locks)
        else:
            locked = lock is not LockMode.READ_COMMITTED
        scan_rows = sum(map(len, scanned))
        self._record(AccessKind.BATCH_PK,
                     "+".join(dict.fromkeys(
                         [table, *(t for t, _ in scans or ())])),
                     sum(1 for r in rows if r is not None) + scan_rows,
                     locked=locked)
        if locked:  # one flag per event; the scans' rows were not locked
            self.stats.rows_locked -= scan_rows
        if commit:  # nothing buffered: nothing to flush, nothing to time
            self._finish(TxState.COMMITTED)
        return rows if scans is None else (rows, scanned)

    def _scan(self, table: str, predicate: Predicate) -> list[dict]:
        self._driver.schema(table)  # validate the table exists
        merged = {
            pk: dict(row)
            for pk, row in self._driver._tables[table].items()
            if predicate is None or predicate(row)
        }
        for (wtable, pk), (op, row) in self._writes.items():
            if wtable != table:
                continue
            if op == "delete":
                merged.pop(pk, None)
            elif predicate is None or predicate(row):  # type: ignore[arg-type]
                merged[pk] = dict(row)  # type: ignore[arg-type]
            else:
                merged.pop(pk, None)
        return list(merged.values())

    def _pruned(self, table: str, partition_values: Mapping[str, Any],
                predicate: Predicate = None) -> list[dict]:
        schema = self._driver.schema(table)
        schema.scan_partition_values(partition_values)  # validate the columns

        def matches(row: Mapping[str, Any]) -> bool:
            if any(row[c] != v for c, v in partition_values.items()):
                return False
            return predicate is None or predicate(row)

        return self._scan(table, matches)

    def ppis(self, table: str, partition_values: Mapping[str, Any],
             predicate: Predicate = None,
             lock: LockMode = LockMode.READ_COMMITTED,
             columns: Optional[Sequence[str]] = None) -> list[dict]:
        self._check()
        rows = self._pruned(table, partition_values, predicate)
        self._record(AccessKind.PPIS, table, len(rows),
                     locked=lock is not LockMode.READ_COMMITTED)
        if columns is not None:
            rows = [{c: row[c] for c in columns} for row in rows]
        return rows

    def ppis_batch(self, scans: Sequence[tuple[str, Mapping[str, Any]]],
                   lock: LockMode = LockMode.READ_COMMITTED,
                   ) -> list[list[dict]]:
        self._check()
        if not scans:
            return []
        # the global mutex is every row lock at once: ``lock`` only
        # shows in the access event, as for ``ppis``
        results = [self._pruned(table, values) for table, values in scans]
        self._record(AccessKind.PPIS,
                     "+".join(dict.fromkeys(table for table, _ in scans)),
                     sum(map(len, results)),
                     locked=lock is not LockMode.READ_COMMITTED)
        return results

    def index_scan(self, table: str, index_name: str, values: Sequence[Any],
                   predicate: Predicate = None,
                   lock: LockMode = LockMode.READ_COMMITTED) -> list[dict]:
        self._check()
        schema = self._driver.schema(table)
        cols = schema.index_columns(index_name)
        key = tuple(values)

        def matches(row: Mapping[str, Any]) -> bool:
            if tuple(row[c] for c in cols) != key:
                return False
            return predicate is None or predicate(row)

        rows = self._scan(table, matches)
        self._record(AccessKind.INDEX_SCAN, table, len(rows),
                     locked=lock is not LockMode.READ_COMMITTED)
        return rows

    def full_scan(self, table: str, predicate: Predicate = None) -> list[dict]:
        self._check()
        rows = self._scan(table, predicate)
        self._record(AccessKind.FULL_SCAN, table, len(rows), locked=False)
        return rows

    # -- writes --------------------------------------------------------------

    def insert(self, table: str, row: Mapping[str, Any]) -> None:
        self._check()
        schema = self._driver.schema(table)
        schema.validate_row(row)
        pk = schema.pk_of(row)
        if self._current(table, pk) is not None:
            raise DuplicateKeyError(f"{table}:{pk}")
        self._writes[(table, pk)] = ("insert", dict(row))

    def update(self, table: str, key: Any, changes: Mapping[str, Any]) -> None:
        self._check()
        schema = self._driver.schema(table)
        pk = schema.pk_tuple(key)
        for col in changes:
            if col in schema.primary_key:
                raise SchemaError(f"cannot update pk column {col!r}")
        current = self._current(table, pk)
        if current is None:
            raise NoSuchRowError(f"{table}:{pk}")
        current.update(changes)
        self._writes[(table, pk)] = ("update", current)

    def write(self, table: str, row: Mapping[str, Any]) -> None:
        self._check()
        schema = self._driver.schema(table)
        schema.validate_row(row)
        pk = schema.pk_of(row)
        self._writes[(table, pk)] = ("update", dict(row))

    def delete(self, table: str, key: Any, must_exist: bool = True) -> None:
        self._check()
        schema = self._driver.schema(table)
        pk = schema.pk_tuple(key)
        if self._current(table, pk) is None:
            if must_exist:
                raise NoSuchRowError(f"{table}:{pk}")
            return
        self._writes[(table, pk)] = ("delete", None)

    # -- end -----------------------------------------------------------------

    def commit(self) -> None:
        self._check()
        with span("commit", writes=len(self._writes)):
            writes = 0
            for (table, pk), (op, row) in self._writes.items():
                store = self._driver._tables[table]
                if op == "delete":
                    store.pop(pk, None)
                else:
                    store[pk] = dict(row)  # type: ignore[arg-type]
                writes += 1
            if writes:
                self._record(AccessKind.BATCH_PK, "*", writes, locked=False,
                             write=True)
                self._record(AccessKind.COMMIT, "*", 0, locked=False)
            self._finish(TxState.COMMITTED)

    def abort(self) -> None:
        if self.state is not TxState.ACTIVE:
            return
        self._writes.clear()
        self._finish(TxState.ABORTED)

    def _finish(self, state: TxState) -> None:
        self.state = state
        self._driver._mutex.release()

    def __enter__(self) -> "MemoryTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.state is TxState.ACTIVE:
            self.commit()
        elif self.state is TxState.ACTIVE:
            self.abort()
