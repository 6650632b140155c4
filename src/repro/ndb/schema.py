"""Table schemas: columns, composite primary keys, partition keys, indexes.

Like NDB, the partition key must be a subset of the primary key; by default
it *is* the primary key (hash partitioning on the full PK). HopsFS relies
on custom partition keys: the ``inodes`` table is partitioned on
``parent_id`` so all children of a directory share a shard, and the
file-metadata tables are partitioned on ``inode_id``.

Because the partition key is part of the (immutable) primary key, every
fragment keeps an index from partition-key values to the rows that carry
them (:mod:`repro.ndb.fragment`). That index is what makes a
partition-pruned index scan cost O(rows returned): one shard by hashing
the values, then one bucket of that shard — the directory's children or
the file's blocks, not the shard's other rows.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import SchemaError


@dataclass(frozen=True)
class TableSchema:
    """Schema of one table.

    ``indexes`` maps an index name to the tuple of columns it covers;
    indexes are exact-match (hash) indexes used by scans. A scan whose
    equality predicate covers the partition-key columns can be *pruned* to
    a single partition and, inside it, to the rows with those values (the
    partition-key index is implicit; it is not listed in ``indexes``).
    """

    name: str
    columns: tuple[str, ...]
    primary_key: tuple[str, ...]
    partition_key: Optional[tuple[str, ...]] = None
    indexes: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    #: pk positions of the partition-key columns (derived): projecting a pk
    #: onto the partition key runs once per row access
    partition_positions: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate columns in table {self.name!r}")
        colset = set(self.columns)
        if not self.primary_key:
            raise SchemaError(f"table {self.name!r} needs a primary key")
        for col in self.primary_key:
            if col not in colset:
                raise SchemaError(f"pk column {col!r} not in table {self.name!r}")
        if self.partition_key is None:
            object.__setattr__(self, "partition_key", tuple(self.primary_key))
        for col in self.partition_key:  # type: ignore[union-attr]
            if col not in self.primary_key:
                raise SchemaError(
                    f"partition-key column {col!r} of table {self.name!r} must "
                    "be part of the primary key (NDB restriction)"
                )
        object.__setattr__(self, "partition_positions", tuple(
            self.primary_key.index(col) for col in self.partition_key))  # type: ignore[union-attr]
        for idx_name, idx_cols in self.indexes.items():
            for col in idx_cols:
                if col not in colset:
                    raise SchemaError(
                        f"index {idx_name!r} column {col!r} not in {self.name!r}"
                    )

    # -- row helpers ---------------------------------------------------------

    def validate_row(self, row: Mapping[str, Any]) -> None:
        for col in self.columns:
            if col not in row:
                raise SchemaError(f"row missing column {col!r} for {self.name!r}")
        extra = set(row) - set(self.columns)
        if extra:
            raise SchemaError(f"row has unknown columns {sorted(extra)} for {self.name!r}")
        for col in self.primary_key:
            if row[col] is None:
                raise SchemaError(f"pk column {col!r} may not be NULL in {self.name!r}")

    def pk_of(self, row: Mapping[str, Any]) -> tuple[Any, ...]:
        return tuple([row[col] for col in self.primary_key])

    def pk_tuple(self, key: Mapping[str, Any] | Sequence[Any]) -> tuple[Any, ...]:
        """Normalize a PK given as mapping or positional sequence."""
        if type(key) is not tuple:  # most callers pass the pk tuple itself
            if isinstance(key, Mapping):
                missing = [c for c in self.primary_key if c not in key]
                if missing:
                    raise SchemaError(f"primary key for {self.name!r} "
                                      f"missing columns {missing}")
                return self.pk_of(key)
            key = tuple(key)
        if len(key) != len(self.primary_key):
            raise SchemaError(
                f"primary key for {self.name!r} needs {len(self.primary_key)} "
                f"values, got {len(key)}"
            )
        return key

    def partition_values_from_pk(self, pk: tuple[Any, ...]) -> tuple[Any, ...]:
        """Project a PK tuple onto the partition-key columns."""
        return tuple([pk[i] for i in self.partition_positions])

    def partition_values(self, values: Mapping[str, Any]) -> tuple[Any, ...]:
        """Extract partition-key values from a mapping (e.g. a hint)."""
        try:
            return tuple([values[col] for col in self.partition_key])  # type: ignore[union-attr]
        except KeyError:
            missing = [c for c in self.partition_key if c not in values]  # type: ignore[union-attr]
            raise SchemaError(
                f"partition key for {self.name!r} missing columns {missing}"
            ) from None

    def scan_partition_values(self, values: Mapping[str, Any]) -> tuple[Any, ...]:
        """Partition-key values of a partition-pruned scan.

        ``values`` must name exactly the partition-key columns: a scan
        cannot be pruned by any other column, and silently dropping (or
        filtering on) one would make the drivers disagree.
        """
        pvals = self.partition_values(values)
        if len(values) != len(pvals):
            extra = sorted(set(values) - set(self.partition_key))  # type: ignore[arg-type]
            raise SchemaError(
                f"{extra} are not partition-key columns of {self.name!r}; "
                "filter on them with a predicate"
            )
        return pvals

    def index_columns(self, index_name: str) -> tuple[str, ...]:
        try:
            return tuple(self.indexes[index_name])
        except KeyError:
            raise SchemaError(f"no index {index_name!r} on table {self.name!r}") from None
