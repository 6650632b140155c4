"""Exception hierarchy shared across the HopsFS reproduction.

The hierarchy mirrors the layering of the system:

* :class:`ReproError` is the root of everything raised on purpose.
* Database-level failures (:class:`DatabaseError` and subclasses) are raised
  by the NDB substrate (:mod:`repro.ndb`) and surfaced through the DAL.
* File-system-level failures (:class:`FileSystemError` and subclasses) are
  raised by namenodes (both HopsFS and the HDFS baseline) and carry POSIX-ish
  semantics that clients may retry or report to applications.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of all exceptions deliberately raised by this library."""


class InjectedFaultError(ReproError):
    """Default error raised by a fired fault-injection spec.

    Chaos tests use it when they want an unambiguous "this failure was
    injected" signal rather than impersonating a real error class.
    """


# ---------------------------------------------------------------------------
# Database layer
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for errors raised by the NDB substrate."""


class NoSuchTableError(DatabaseError):
    """A table name does not exist in the cluster schema."""


class SchemaError(DatabaseError):
    """A row violates its table schema (missing column, bad PK, ...)."""


class DuplicateKeyError(DatabaseError):
    """An insert collided with an existing primary key."""


class NoSuchRowError(DatabaseError):
    """A primary-key read required a row that does not exist."""


class TransactionError(DatabaseError):
    """Base class for transaction failures; aborting the tx is required."""


class TransactionAbortedError(TransactionError):
    """The transaction was rolled back (explicitly or by the engine)."""


class LockTimeoutError(TransactionError):
    """A row lock could not be acquired within the configured timeout.

    Mirrors NDB's ``TransactionInactiveTimeout``/lock wait timeouts; the
    caller is expected to abort and retry the whole transaction.
    """


class DeadlockError(TransactionError):
    """The lock manager detected a wait-for cycle involving this tx."""


class NodeFailureError(DatabaseError):
    """An NDB datanode needed by the operation is not available."""


class ClusterDownError(DatabaseError):
    """An entire node group is dead: the cluster cannot serve requests."""


# ---------------------------------------------------------------------------
# RPC layer (process-based deployment)
# ---------------------------------------------------------------------------


class RPCError(ReproError):
    """Base class for errors raised by the DAL RPC layer itself.

    Engine errors (everything above) travel over the wire and are
    re-raised as their original classes on the client; :class:`RPCError`
    subclasses describe failures *of the transport or the server
    process*, not of the database.
    """


class ProtocolError(RPCError):
    """Malformed frame, oversized frame, or undecodable payload."""


class ConnectionClosedError(RPCError):
    """The peer closed the connection (EOF) or the socket died."""


class RequestTimeoutError(RPCError):
    """No response within the configured request timeout.

    The connection is poisoned afterwards (a late response would desync
    request/response matching) and is closed rather than reused.
    """


class ServerShutdownError(RPCError):
    """The server is draining for shutdown and refuses new work."""


class CommitAmbiguousError(RPCError):
    """The connection died while a commit was in flight.

    The commit may or may not have been applied; the client must *not*
    transparently retry the transaction (it could double-apply) and has
    to re-read to find out. Non-commit RPCs never raise this: losing the
    connection aborts the server-side transaction, so retrying the whole
    transaction callback is safe.
    """


class RemoteCallError(RPCError):
    """The server raised an exception type unknown to this client."""


class CrashLoopError(RPCError):
    """A supervised server process keeps dying right after respawn.

    Raised by the supervisor once the respawn backoff cap is exhausted:
    spinning on a server that crashes within its crash-loop window only
    burns CPU and hides the real failure.
    """


# ---------------------------------------------------------------------------
# File system layer
# ---------------------------------------------------------------------------


class FileSystemError(ReproError):
    """Base class for errors raised by namenode operations."""


class FileNotFoundError_(FileSystemError):
    """Path does not exist (named with a trailing underscore to avoid
    shadowing the builtin while keeping the intent obvious)."""


class FileAlreadyExistsError(FileSystemError):
    """Create/mkdir target already exists."""


class ParentNotDirectoryError(FileSystemError):
    """A non-directory appears as an intermediate path component."""


class NotDirectoryError(FileSystemError):
    """Directory-only operation applied to a file."""


class IsDirectoryError_(FileSystemError):
    """File-only operation applied to a directory."""


class DirectoryNotEmptyError(FileSystemError):
    """Non-recursive delete/rename constraint violated."""


class PermissionDeniedError(FileSystemError):
    """Caller lacks permission for the operation."""


class InvalidPathError(FileSystemError):
    """Path is syntactically invalid."""


class QuotaExceededError(FileSystemError):
    """Namespace or disk-space quota would be violated."""


class LeaseConflictError(FileSystemError):
    """File is under construction by another client."""


class RetriableError(FileSystemError):
    """Operation must be retried by the client.

    Raised e.g. when an inode operation encounters a subtree lock, or when a
    namenode dies mid-operation; HopsFS clients transparently resubmit to
    another namenode.
    """


class SubtreeLockedError(RetriableError):
    """Path is inside a subtree currently locked by a subtree operation."""


class NameNodeUnavailableError(RetriableError):
    """The contacted namenode is down or shutting down."""


class SafeModeError(RetriableError):
    """Namenode is in safe mode (e.g. HDFS during failover/startup)."""


class StandbyError(RetriableError):
    """Operation sent to an HDFS standby namenode; retry on the active."""


class DegradedModeError(RetriableError):
    """The namenode is in read-only degraded mode and rejects mutations.

    Entered when the commit failure rate trips the configured threshold
    (the database is sick); reads keep being served. Retriable: another
    namenode may still be healthy, and this one exits degraded mode as
    soon as a write probe succeeds.
    """
