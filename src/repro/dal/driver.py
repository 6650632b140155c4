"""Abstract DAL driver interface.

The interface is the contract HopsFS code is written against. It is the
union of what the namenode transaction template needs:

* transactions with partition-key hints (distribution-aware placement);
* primary-key reads (optionally locked), batched primary-key reads
  (which may carry the partition-pruned scans that follow them and the
  commit of a read-only transaction — NDB's ``execute(Commit)``),
  partition-pruned index scans (one, or a batch in one round trip;
  either optionally locked),
  index scans, full scans;
* buffered inserts/updates/deletes flushed at commit (none of them
  returns anything: a caller that must know whether a row exists reads
  it);
* per-session access statistics (:class:`repro.ndb.AccessStats`).

:class:`repro.ndb.transaction.Transaction` satisfies
:class:`DALTransaction` structurally; :class:`MemoryDriver` provides an
independent implementation, demonstrating that namenode code really is
engine agnostic.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Mapping, Optional, Protocol, Sequence, TypeVar

from repro.metrics.registry import MetricsRegistry
from repro.ndb.locks import LockMode
from repro.ndb.schema import TableSchema
from repro.ndb.stats import AccessStats

T = TypeVar("T")


class DALTransaction(Protocol):
    """Structural protocol for one transaction."""

    stats: AccessStats

    def read(self, table: str, key: Any, lock: LockMode = ...) -> Optional[dict]: ...

    def read_batch(self, table: str, keys: Sequence[Any],
                   lock: LockMode = ...,
                   locks: Optional[Sequence[LockMode]] = ...,
                   *,
                   scans: Optional[Sequence[tuple[str, Mapping[str, Any]]]] = ...,
                   commit: bool = ...,
                   ) -> Any:
        """The rows of ``keys`` (``None`` for a miss), in key order, in
        one round trip; locks are taken in key order.

        With ``scans`` the call is ``(read_batch(table, keys, ...),
        ppis_batch(scans))`` — returned as that pair — executed in that
        order in the *same* round trip and recorded as one ``BATCH_PK``
        access event: every lock of ``keys`` is held before any scan
        reads, which is what makes the lock of an inode cover the scan
        of its rows (§5.2.1). Riding scans are read-committed.

        ``commit=True`` says this is the transaction's last operation:
        the engine commits (releases the locks) after the reads and the
        transaction comes back ``COMMITTED``. Refused with
        :class:`~repro.errors.TransactionError`, before anything is
        read, on a transaction that called a write method."""
        ...

    def ppis(self, table: str, partition_values: Mapping[str, Any],
             predicate: Any = ..., lock: LockMode = ...,
             columns: Optional[Sequence[str]] = ...) -> list[dict]: ...

    def ppis_batch(self, scans: Sequence[tuple[str, Mapping[str, Any]]],
                   lock: LockMode = ...) -> list[list[dict]]:
        """``[ppis(table, values, lock=lock) for table, values in scans]``
        — any tables, results in request order, own buffered writes
        visible — in **one** round trip and one access event. A locking
        batch takes the row locks of all its scans as one
        ``(table, pk)``-ordered batch and re-reads the rows under them;
        it takes no predicate, so the caller filters."""
        ...

    def index_scan(self, table: str, index_name: str, values: Sequence[Any],
                   predicate: Any = ..., lock: LockMode = ...) -> list[dict]: ...

    def full_scan(self, table: str, predicate: Any = ...) -> list[dict]: ...

    def insert(self, table: str, row: Mapping[str, Any]) -> None: ...

    def update(self, table: str, key: Any, changes: Mapping[str, Any]) -> None: ...

    def write(self, table: str, row: Mapping[str, Any]) -> None: ...

    def delete(self, table: str, key: Any, must_exist: bool = ...) -> None: ...

    def commit(self) -> None: ...

    def abort(self) -> None: ...


class DALSession(Protocol):
    """Structural protocol for a per-client session."""

    stats: AccessStats

    def begin(self, hint: Optional[tuple[str, Mapping[str, Any]]] = ...) -> DALTransaction: ...

    def run(self, fn: Callable[[DALTransaction], T],
            hint: Optional[tuple[str, Mapping[str, Any]]] = ...,
            retries: int = ...) -> T: ...

    def reset_stats(self) -> AccessStats: ...


class DALDriver(abc.ABC):
    """Factory for sessions against one storage engine instance."""

    @abc.abstractmethod
    def create_table(self, schema: TableSchema) -> None:
        """Create a table; raises if it already exists."""

    @abc.abstractmethod
    def session(self) -> DALSession:
        """Open a new session (one per client thread)."""

    @abc.abstractmethod
    def table_size(self, table: str) -> int:
        """Committed row count (for tests and admin tooling)."""

    @property
    @abc.abstractmethod
    def engine_name(self) -> str:
        """Human-readable engine identifier."""

    @abc.abstractmethod
    def metrics_registry(self) -> MetricsRegistry:
        """The live registry this driver (and the engine behind it, when
        in-process) records into, its point-in-time gauges refreshed."""
