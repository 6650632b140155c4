"""Fragment: one replica of one partition of one table.

A fragment stores rows keyed by primary-key tuple, a *partition-key
index* and hash indexes for the table's secondary indexes. Every datanode
in a partition's node group holds its own fragment replica; committed
writes are applied to all live replicas. A per-fragment lock keeps
row+index mutation atomic with respect to concurrent readers
(transaction-level isolation is the job of the row-lock manager, not the
fragment).

Access paths and what they cost here:

* ``get`` / ``get_many`` — primary-key lookups, O(1) per key;
* ``partition_lookup`` — serves the partition-pruned index scan. The
  partition-key index maps partition-key values to the pks that carry
  them, so the lookup visits only the rows of that partition value:
  O(rows returned), however many other rows (other directories, other
  files' blocks) share the shard;
* ``index_lookup`` — one secondary-index bucket, O(bucket);
* ``scan`` — every row of the fragment, O(fragment); only full table
  scans and unindexed all-shard scans come here.

Index buckets are insertion-ordered (``dict`` keys, not ``set``), so every
lookup returns rows in the order they were inserted — the order ``scan``
yields them — independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import DuplicateKeyError, NoSuchRowError
from repro.ndb.schema import TableSchema

Predicate = Optional[Callable[[Mapping[str, Any]], bool]]
Pk = tuple[Any, ...]
#: an insertion-ordered set of pks (dict keys; the values are unused)
Bucket = dict[Pk, None]


class Fragment:
    def __init__(self, schema: TableSchema, partition_id: int) -> None:
        self.schema = schema
        self.partition_id = partition_id
        self._rows: dict[Pk, dict[str, Any]] = {}  # guarded_by: _lock
        #: partition-key values -> pks, in ``_rows`` order. The partition
        #: key is part of the immutable pk, so only insert / delete /
        #: restore / load touch it — never an update.
        self._partition_index: dict[tuple[Any, ...], Bucket] = {}  # guarded_by: _lock
        # guarded_by: _lock
        self._indexes: dict[str, dict[tuple[Any, ...], Bucket]] = {
            name: {} for name in schema.indexes
        }
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    # -- reads ----------------------------------------------------------------

    def get(self, pk: Pk) -> Optional[dict[str, Any]]:
        with self._lock:
            row = self._rows.get(pk)
            return dict(row) if row is not None else None

    def get_many(self, pks: Sequence[Pk]) -> list[Optional[dict[str, Any]]]:
        """``get`` for a batch of pks under one acquisition of the lock."""
        with self._lock:
            rows = self._rows
            return [dict(row) if (row := rows.get(pk)) is not None else None
                    for pk in pks]

    def scan(self, predicate: Predicate = None) -> list[dict[str, Any]]:
        with self._lock:
            return self._copies(self._rows.values(), predicate)

    def partition_lookup(self, partition_values: tuple[Any, ...],
                         predicate: Predicate = None) -> list[dict[str, Any]]:
        """Rows whose partition-key columns equal ``partition_values``."""
        with self._lock:
            pks = self._partition_index.get(partition_values)
            if pks is None:
                return []
            return self._copies(map(self._rows.__getitem__, pks), predicate)

    def index_lookup(self, index_name: str, values: tuple[Any, ...],
                     predicate: Predicate = None) -> list[dict[str, Any]]:
        with self._lock:
            pks = self._indexes[index_name].get(values, ())
            return self._copies(map(self._rows.__getitem__, pks), predicate)

    @staticmethod
    def _copies(rows: Iterable[Mapping[str, Any]],
                predicate: Predicate) -> list[dict[str, Any]]:
        if predicate is None:
            return [dict(row) for row in rows]
        return [dict(row) for row in rows if predicate(row)]

    def pks(self) -> Iterator[Pk]:
        with self._lock:
            return iter(list(self._rows.keys()))

    # -- writes (called only with the row X-locked at the lock manager) --------

    def apply_insert(self, row: Mapping[str, Any]) -> None:
        pk = self.schema.pk_of(row)
        with self._lock:
            if pk in self._rows:
                raise DuplicateKeyError(f"{self.schema.name}:{pk}")
            self.apply_restore(pk, row)

    def apply_update(self, pk: Pk, row: Mapping[str, Any]) -> None:
        with self._lock:
            old = self._rows.get(pk)
            if old is None:
                raise NoSuchRowError(f"{self.schema.name}:{pk}")
            stored = dict(row)
            self._rows[pk] = stored  # keeps the row's position
            for name, cols in self.schema.indexes.items():
                old_key = tuple(old[col] for col in cols)
                new_key = tuple(stored[col] for col in cols)
                if old_key != new_key:
                    self._bucket_remove(self._indexes[name], old_key, pk)
                    self._indexes[name].setdefault(new_key, {})[pk] = None

    def apply_delete(self, pk: Pk) -> None:
        with self._lock:
            if pk not in self._rows:
                raise NoSuchRowError(f"{self.schema.name}:{pk}")
            self.apply_restore(pk, None)

    def apply_restore(self, pk: Pk, row: Optional[Mapping[str, Any]]) -> None:
        """Force a row to a given state (undo/redo recovery; also the one
        place rows enter and leave the indexes): drop the row if present,
        then append the new image, if any, at the end."""
        with self._lock:
            pvals = self.schema.partition_values_from_pk(pk)
            old = self._rows.pop(pk, None)
            if old is not None:
                self._bucket_remove(self._partition_index, pvals, pk)
                for name, cols in self.schema.indexes.items():
                    self._bucket_remove(self._indexes[name],
                                        tuple(old[col] for col in cols), pk)
            if row is not None:
                stored = dict(row)
                self._rows[pk] = stored
                self._partition_index.setdefault(pvals, {})[pk] = None
                for name, cols in self.schema.indexes.items():
                    key = tuple(stored[col] for col in cols)
                    self._indexes[name].setdefault(key, {})[pk] = None

    # -- snapshot / clone -------------------------------------------------------

    def snapshot(self) -> dict[Pk, dict[str, Any]]:
        with self._lock:
            return {pk: dict(row) for pk, row in self._rows.items()}

    def load(self, rows: Mapping[Pk, Mapping[str, Any]]) -> None:
        with self._lock:
            self._rows = {}
            self._partition_index = {}
            self._indexes = {name: {} for name in self.schema.indexes}
            for pk, row in rows.items():
                self.apply_restore(pk, row)

    @staticmethod
    def _bucket_remove(index: dict[tuple[Any, ...], Bucket],
                       key: tuple[Any, ...], pk: Pk) -> None:
        bucket = index[key]
        del bucket[pk]
        if not bucket:
            del index[key]
