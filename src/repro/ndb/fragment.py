"""Fragment: one replica of one partition of one table.

A fragment stores rows keyed by primary-key tuple, a *partition-key
index* and hash indexes for the table's secondary indexes. Every datanode
in a partition's node group holds its own fragment replica; committed
writes are applied to all live replicas, each fragment's slice of a
commit in one ``apply_batch`` call, in write order — the one place rows
enter and leave the indexes. A per-fragment lock, held once per call,
keeps row+index mutation atomic with respect to concurrent readers
(transaction-level isolation is the job of the row-lock manager).

Row ownership: a stored row is never mutated — a write replaces it
whole — so a fragment keeps the row object it is given, and one
committed image is shared by every replica and by the commit log's
redo/undo record. Rows leave the engine only as copies (``get``,
``get_many``, the lookups and ``snapshot``); ``peek`` hands the engine's
own write path (``peek_many`` a batch of them) the stored object to
check, never to change.

Access paths and what they cost here:

* ``get`` / ``get_many`` — primary-key lookups, O(1) per key;
* ``partition_lookup`` — serves the partition-pruned index scan. The
  partition-key index maps partition-key values to the pks that carry
  them, so the lookup visits only the rows of that partition value:
  O(rows returned), however many other rows (other directories, other
  files' blocks) share the shard;
* ``index_lookup`` — one secondary-index bucket, O(bucket);
* both lookups, with ``keys``, hand over the matching pks instead of
  copies: a locking scan's candidates, which it copies once, after the
  lock (``get_many``);
* ``scan`` — every row of the fragment, O(fragment); only full table
  scans and unindexed all-shard scans come here.

Index buckets are insertion-ordered (``dict`` keys, not ``set``), so every
lookup returns rows in the order they entered the bucket (an update that
moves an indexed column re-appends the pk), independent of
``PYTHONHASHSEED``. A bucket key is the tuple of the index's column
values (a 1-tuple for one column), built by a key function each fragment
makes once per index. Node recovery (``load_from``) copies a live
replica's buckets as they are; crash recovery's ``load`` still rebuilds
each bucket in row order, the same way on every replica.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.errors import DuplicateKeyError, NoSuchRowError
from repro.ndb.schema import TableSchema

Predicate = Optional[Callable[[Mapping[str, Any]], bool]]
Pk = tuple[Any, ...]
#: an insertion-ordered set of pks (dict keys; the values are unused)
Bucket = dict[Pk, None]


@dataclass(slots=True)
class WriteRecord:
    """One row mutation inside a committed transaction: an entry of its
    redo/undo record and of its fragment's ``apply_batch`` slice.

    ``before`` is the committed row image prior to the write (undo);
    ``after`` is the image after it (redo). Inserts have ``before=None``;
    deletes have ``after=None``. Both are the very row objects the
    replicas store (never mutated), so a consumer copies what it keeps.
    """

    table: str
    partition_id: int
    pk: tuple[Any, ...]
    before: Optional[dict[str, Any]]
    after: Optional[dict[str, Any]]


def _key_getter(fields: Sequence[Any]) -> Callable[[Any], tuple[Any, ...]]:
    """The tuple of ``fields`` of a row (column names) or of a pk
    (positions); one field gives a 1-tuple."""
    if len(fields) == 1:
        [only] = fields
        return lambda item: (item[only],)
    return operator.itemgetter(*fields)


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
        #: (index, its key function) per secondary index; ``load`` clears
        #: the indexes in place, so these stay bound to them
        self._index_keys = tuple(
            (self._indexes[name], _key_getter(cols))
            for name, cols in schema.indexes.items())
        self._partition_of_pk = _key_getter(schema.partition_positions)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    # -- reads ----------------------------------------------------------------

    def get(self, pk: Pk) -> Optional[dict[str, Any]]:
        with self._lock:
            row = self._rows.get(pk)
            return dict(row) if row is not None else None

    def peek(self, pk: Pk) -> Optional[dict[str, Any]]:
        """The stored row itself, uncopied: for the engine's checks and
        undo images only, never to mutate or hand out."""
        with self._lock:
            return self._rows.get(pk)

    def peek_many(self, pks: Iterable[Pk]) -> list[Optional[dict[str, Any]]]:
        """``peek`` for a batch of pks under one acquisition of the lock."""
        with self._lock:
            return list(map(self._rows.get, pks))

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
                         predicate: Predicate = None, *,
                         keys: bool = False) -> list[Any]:
        """Rows whose partition-key columns equal ``partition_values``;
        with ``keys`` their pks instead of copies."""
        with self._lock:
            pks = self._partition_index.get(partition_values)
            if pks is None:
                return []
            if keys:
                return self._keys(pks, predicate)
            return self._copies(map(self._rows.__getitem__, pks), predicate)

    def index_lookup(self, index_name: str, values: tuple[Any, ...],
                     predicate: Predicate = None, *,
                     keys: bool = False) -> list[Any]:
        with self._lock:
            pks = self._indexes[index_name].get(values, ())
            if keys:
                return self._keys(pks, predicate)
            return self._copies(map(self._rows.__getitem__, pks), predicate)

    @staticmethod
    def _copies(rows: Iterable[Mapping[str, Any]],
                predicate: Predicate) -> list[dict[str, Any]]:
        if predicate is None:
            return [dict(row) for row in rows]
        return [dict(row) for row in rows if predicate(row)]

    def _keys(self, pks: Iterable[Pk], predicate: Predicate) -> list[Pk]:
        """The pks whose stored row passes ``predicate`` (``_lock`` held):
        a locking scan's candidates, which it copies once, under the
        row locks."""
        if predicate is None:
            return list(pks)
        rows = self._rows
        return [pk for pk in pks if predicate(rows[pk])]

    # -- writes (called only with the rows X-locked at the lock manager) -------

    def apply_batch(self, writes: Iterable[WriteRecord]) -> None:
        """Apply this fragment's slice of a commit batch, in write order,
        under one hold of the lock. A write's images pick its operation:
        no ``after`` deletes, no ``before`` inserts, both update (a
        delete+insert of one pk inside a transaction nets out to an
        update, which keeps the row's place). A duplicate or missing row
        raises at its write, the writes before it applied."""
        name = self.schema.name
        index_keys = self._index_keys
        partition_of = self._partition_of_pk
        bucket_remove = self._bucket_remove
        with self._lock:
            rows, partition_index = self._rows, self._partition_index
            for wrec in writes:
                pk, row = wrec.pk, wrec.after
                if row is None:
                    old = rows.pop(pk, None)
                    if old is None:
                        raise NoSuchRowError(f"{name}:{pk}")
                    bucket_remove(partition_index, partition_of(pk), pk)
                    for index, key_of in index_keys:
                        bucket_remove(index, key_of(old), pk)
                elif wrec.before is None:
                    if pk in rows:
                        raise DuplicateKeyError(f"{name}:{pk}")
                    rows[pk] = row
                    partition_index.setdefault(partition_of(pk), {})[pk] = None
                    for index, key_of in index_keys:
                        index.setdefault(key_of(row), {})[pk] = None
                else:
                    old = rows.get(pk)
                    if old is None:
                        raise NoSuchRowError(f"{name}:{pk}")
                    rows[pk] = row  # keeps the row's position
                    for index, key_of in index_keys:
                        if (old_key := key_of(old)) != (new_key := key_of(row)):
                            bucket_remove(index, old_key, pk)
                            index.setdefault(new_key, {})[pk] = None

    def apply_restore(self, pk: Pk, row: Optional[dict[str, Any]]) -> None:
        """Force a row to a given state (undo/redo recovery): drop the row
        if present, then append the new image, if any, at the end."""
        name, pid = self.schema.name, self.partition_id
        with self._lock:
            old = self._rows.get(pk)
            writes = [] if old is None else [
                WriteRecord(name, pid, pk, old, None)]
            if row is not None:
                writes.append(WriteRecord(name, pid, pk, None, row))
            self.apply_batch(writes)

    # -- snapshot / clone -------------------------------------------------------

    def snapshot(self) -> dict[Pk, dict[str, Any]]:
        with self._lock:
            return {pk: dict(row) for pk, row in self._rows.items()}

    def load(self, rows: Mapping[Pk, dict[str, Any]]) -> None:
        """Replace every row with ``rows``, storing their row objects."""
        with self._lock:
            self._rows = {}
            self._partition_index = {}
            for index, _key_of in self._index_keys:
                index.clear()
            name, pid = self.schema.name, self.partition_id
            self.apply_batch(WriteRecord(name, pid, pk, None, row)
                             for pk, row in rows.items())

    def load_from(self, source: "Fragment") -> None:
        """Node recovery: load the rows ``source`` stores, uncopied, so
        this replica shares them with it as it shares every commit's,
        and its index buckets in their order, so every lookup lists its
        rows as the source does."""
        with source._lock:
            rows = dict(source._rows)
            partition_index = {key: dict(bucket) for key, bucket
                               in source._partition_index.items()}
            indexes = [{key: dict(bucket) for key, bucket in index.items()}
                       for index, _key_of in source._index_keys]
        with self._lock:
            self._rows = rows
            self._partition_index = partition_index
            for (index, _key_of), buckets in zip(self._index_keys, indexes):
                index.clear()
                index.update(buckets)

    @staticmethod
    def _bucket_remove(index: dict[tuple[Any, ...], Bucket],
                       key: tuple[Any, ...], pk: Pk) -> None:
        bucket = index[key]
        del bucket[pk]
        if not bucket:
            del index[key]
