"""The HopsFS transaction template (paper §5, Figure 4).

Every inode operation is one DAL transaction with three phases:

1. **Lock phase** — primary keys for the path components come from the
   inode hint cache; one *batched* primary-key read fetches every
   component, the intermediate ones at read-committed (no locks) and,
   in the same read, the last component (and, for mutating/listing
   operations, its parent) with the strongest lock the operation will
   need — never upgraded later, never re-read — in root-down order,
   which is the global total order that keeps lock acquisition deadlock
   free. There is one resolver: on a cache miss the resolver falls back
   to component-by-component reads, repairs the cache and takes the
   parent/last locks with one locked re-read; a hint found stale under
   a lock aborts and retries (:class:`StalePathHintError`). File-inode
   related rows are read with partition-pruned index scans in a fixed
   table order. When every component is hinted the hint also names the
   partition those scans are pruned to (the last inode's id), so the
   batched read ships them with it (``read_batch(scans=...)``: one
   ``execute()``), and an operation whose resolve is its last database
   access has it carry the commit too (``commit=True``:
   ``execute(Commit)``) — a warm ``stat``/``read``/``ls`` is one round
   trip and, over the wire, one request.
2. **Execute phase** — pure computation on the rows (the per-transaction
   cache: rows are plain dicts held by the operation; the DAL transaction
   additionally buffers writes and serves read-your-writes).
3. **Update phase** — buffered changes flush to the database in batches
   at commit.

Subtree-lock flags encountered during resolution abort the transaction:
live owners cause :class:`SubtreeLockedError` (the client retries), dead
owners cause :class:`StaleSubtreeLockError` (the namenode lazily clears
the flag and retries, §6.2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.errors import (
    FileSystemError,
    ParentNotDirectoryError,
    SubtreeLockedError,
    TransactionAbortedError,
)
from repro.dal.driver import DALSession, DALTransaction
from repro.hopsfs import schema as fs_schema
from repro.hopsfs.hintcache import InodeHint, InodeHintCache
from repro.hopsfs.paths import join_path, split_path
from repro.metrics.tracing import span
from repro.ndb.locks import LockMode


class StaleSubtreeLockError(FileSystemError):
    """A subtree lock owned by a dead namenode was encountered.

    Internal control flow: the namenode clears the flag (lazy cleanup)
    and retries the operation; clients never see this error.
    """

    def __init__(self, inode_pk: tuple, owner: int) -> None:
        super().__init__(f"stale subtree lock owned by dead namenode {owner}")
        self.inode_pk = inode_pk
        self.owner = owner


class StalePathHintError(TransactionAbortedError):
    """A locked batched resolve validated a hint as stale (paper §5.3).

    The parent/last locks are taken on hint-derived primary keys
    inside the batched read itself; when
    validation then finds a hint stale the transaction holds a lock on a
    key the path no longer maps to, so the only safe move is to abort and
    retry with the (now invalidated) hint repaired. Subclassing
    :class:`TransactionAbortedError` makes every session's retry loop
    handle it transparently; clients never see this error.
    """


#: what an operation reads right after its resolve, told from the last
#: component's hint alone: the pruned scans to ship with the batched
#: read, ``[]`` for "nothing more", None for "cannot tell" (e.g. the
#: listing of a ``children_random`` directory is an all-shard scan)
ScansFor = Callable[[InodeHint], Optional[list[tuple[str, Mapping[str, Any]]]]]


def root_row(children_random: bool = True) -> dict:
    """The immutable root inode, cached at every namenode (§4.2.1)."""
    return {
        "part_key": fs_schema.ROOT_PART_KEY,
        "parent_id": 0,
        "name": "",
        "id": fs_schema.ROOT_ID,
        "is_dir": True,
        "perm": 0o755,
        "owner": "hdfs",
        "group": "hdfs",
        "mtime": 0.0,
        "atime": 0.0,
        "size": 0,
        "replication": 0,
        "under_construction": False,
        "client": None,
        "subtree_lock_owner": fs_schema.NO_LOCK,
        "subtree_op": None,
        "depth": 0,
        "children_random": children_random,
    }


@dataclass
class ResolvedPath:
    """Result of resolving a path inside a transaction.

    ``rows[i]`` is the inode row of ``components[i]`` (depth ``i+1``) or
    None once the path stops existing; the implicit root is not included
    (it is available as :attr:`root`).
    """

    path: str
    components: list[str]
    rows: list[Optional[dict]] = field(default_factory=list)
    root: dict = field(default_factory=root_row)
    #: results of the scans that rode the batched read, in the order the
    #: operation's ``scans_for`` listed them; None when none rode (cold,
    #: partial or unprovable hints) and the operation scans for itself
    scanned: Optional[list[list[dict]]] = None  # guarded_by: owner-thread

    @property
    def exists(self) -> bool:
        return all(row is not None for row in self.rows) and (
            len(self.rows) == len(self.components)
        )

    @property
    def last(self) -> Optional[dict]:
        if not self.components:
            return self.root
        if len(self.rows) == len(self.components):
            return self.rows[-1]
        return None

    @property
    def parent(self) -> Optional[dict]:
        """Row of the penultimate component (root row for depth-1 paths)."""
        if len(self.components) <= 1:
            return self.root
        if len(self.rows) >= len(self.components) - 1 and all(
            row is not None for row in self.rows[: len(self.components) - 1]
        ):
            return self.rows[len(self.components) - 2]
        return None

    @property
    def existing_prefix_depth(self) -> int:
        """Number of leading components that exist."""
        depth = 0
        for row in self.rows:
            if row is None:
                break
            depth += 1
        return depth


class PathResolver:
    """Per-namenode resolver owning the inode hint cache."""

    def __init__(self, cache: InodeHintCache, random_depth: int,
                 is_namenode_dead: Callable[[int], bool]) -> None:
        self._cache = cache
        self._random_depth = random_depth
        self._is_namenode_dead = is_namenode_dead
        self.batched_resolutions = 0
        self.recursive_resolutions = 0

    # -- hint-key computation ----------------------------------------------------

    def root_row(self) -> dict:
        return root_row(children_random=self._random_depth >= 1)

    def child_part_key(self, parent_children_random: bool, parent_id: int,
                       name: str) -> int:
        return fs_schema.child_partition_key(parent_children_random,
                                             parent_id, name)

    def children_random_for_new_dir(self, depth: int) -> bool:
        """Partition rule of a directory created at ``depth``: its children
        (at ``depth+1``) are name-hashed iff they fall in the top levels."""
        return depth + 1 <= self._random_depth

    # -- resolution ----------------------------------------------------------------

    def resolve(self, tx: DALTransaction, path: str,
                lock_last: LockMode = LockMode.READ_COMMITTED,
                lock_parent: LockMode = LockMode.READ_COMMITTED,
                check_subtree_locks: bool = True,
                scans_for: Optional[ScansFor] = None,
                last_access: bool = False) -> ResolvedPath:
        """Resolve ``path``, locking the parent and last components.

        Lock order is parent before child (root-down), matching the global
        total order. Intermediate components are read at read-committed.

        ``scans_for`` names the scans the operation runs next and
        ``last_access`` says the resolve (with those scans) is the
        transaction's last database access. Both are used only when every
        component is hinted: the scans then ride the batched read
        (:attr:`ResolvedPath.scanned`) and, if nothing is left to read,
        so does the commit — the transaction comes back ``COMMITTED``.
        Otherwise ``scanned`` is None, the transaction stays open and the
        operation reads and commits as if it had passed neither.
        """
        components = split_path(path)
        resolved = ResolvedPath(path=path, components=components,
                                root=self.root_row())
        if not components:
            return resolved
        with span("resolve", depth=len(components)) as resolve_span:
            rows, batched, resolved.scanned = self._resolve_prefix(
                tx, components, lock_last, lock_parent, scans_for,
                last_access)
            if resolve_span is not None:
                resolve_span.set_label(
                    "method", "batched" if batched else "recursive")
        if not batched and (lock_last is not LockMode.READ_COMMITTED
                            or lock_parent is not LockMode.READ_COMMITTED):
            # The recursive resolve reads lock-free: re-read the
            # components that need locks at the required strength, in
            # root-down order (parent first, then last).
            with span("lock", last=lock_last.value, parent=lock_parent.value):
                self._lock_resolved(tx, components, rows, lock_last,
                                    lock_parent)
        resolved.rows = rows
        if check_subtree_locks:
            self._check_subtree_locks(resolved)
        # intermediate components must be directories
        for i, row in enumerate(resolved.rows[:-1] if resolved.rows else []):
            if row is not None and not row["is_dir"]:
                raise ParentNotDirectoryError(
                    f"{join_path(components[: i + 1])} is not a directory"
                )
        return resolved

    def _resolve_prefix(self, tx: DALTransaction, components: list[str],
                        lock_last: LockMode, lock_parent: LockMode,
                        scans_for: Optional[ScansFor], last_access: bool,
                        ) -> tuple[list[Optional[dict]], bool,
                                   Optional[list[list[dict]]]]:
        """Resolve every component, batched if possible.

        A path whose components are all hinted costs one batched read.
        When only the *last* component is unhinted — the normal case for
        creates, whose target does not exist yet — the hinted prefix is
        still fetched in one batch ("up to the penultimate inode",
        Fig. 4 line 3) and the last component costs one extra PK read.

        The batch itself locks the parent/last keys — root-down key
        order, so the lock phase follows the global total order. The
        second element of the returned tuple says whether the batched
        path served the resolve (every requested lock is then held);
        False means the lock-free recursive fallback did. A hint found
        stale by a *locked* batch raises :class:`StalePathHintError`
        (retry with the hint repaired); the lock-free batch keeps
        falling back in-transaction.

        Only the fully hinted batch carries the operation's scans and
        commit (see :meth:`resolve`); the third element is what the scans
        found, None when they did not ride.
        """
        hints = []
        parent_id = fs_schema.ROOT_ID
        for depth, name in enumerate(components, start=1):
            hint = self._cache.get(parent_id, name)
            if hint is None:
                break
            hints.append((depth, parent_id, name, hint))
            parent_id = hint.inode_id
        n = len(components)
        want_locks = (lock_last is not LockMode.READ_COMMITTED
                      or lock_parent is not LockMode.READ_COMMITTED)
        if len(hints) >= n - 1:
            locks = None
            if want_locks and hints:
                locks = [LockMode.READ_COMMITTED] * len(hints)
                if n >= 2:
                    locks[n - 2] = lock_parent
                if len(hints) == n:
                    locks[n - 1] = lock_last
            scans, commit = None, False
            if len(hints) == n:
                # the last hint holds the id every follow-up scan is
                # pruned to; with nothing left to read the commit rides
                if scans_for is not None:
                    scans = scans_for(hints[-1][3])
                    commit = last_access and scans is not None
                else:
                    commit = last_access
            rows, scanned = self._batched_resolve(
                tx, components, hints, locks=locks, scans=scans,
                commit=commit)
            if rows is not None:
                if len(rows) == n - 1:
                    parent = rows[-1] if rows else self.root_row()
                    if parent is None:
                        pass
                    elif lock_last is not LockMode.READ_COMMITTED:
                        # Lock the last key (existing or future) in the
                        # same read that fetches it: serializes raced
                        # creates of the same name without a re-read.
                        last = self.lookup_child(tx, parent, components[-1],
                                                 lock=lock_last)
                        rows.append(last)
                        if last is not None:
                            self._cache.put(parent["id"], components[-1],
                                            last["id"], last["part_key"],
                                            last["is_dir"],
                                            last["children_random"])
                    elif parent["is_dir"]:
                        last = self.lookup_child(tx, parent, components[-1])
                        if last is not None:
                            rows.append(last)
                            self._cache.put(parent["id"], components[-1],
                                            last["id"], last["part_key"],
                                            last["is_dir"],
                                            last["children_random"])
                self.batched_resolutions += 1
                return rows, True, scanned
        self.recursive_resolutions += 1
        return self._recursive_resolve(tx, components), False, None

    def _batched_resolve(self, tx: DALTransaction, components: list[str],
                         hints: list,
                         locks: Optional[list[LockMode]] = None,
                         scans: Optional[list] = None,
                         commit: bool = False,
                         ) -> tuple[Optional[list[Optional[dict]]],
                                    Optional[list[list[dict]]]]:
        """One batched PK read for the hinted prefix, with what the scans
        that rode it found; ``(None, None)`` on stale hints.

        With ``locks`` the batch also acquires the per-key locks; a stale
        hint then raises :class:`StalePathHintError` instead of returning
        None, because a lock already sits on a hint-derived key — and so
        it does when the commit rode, because the transaction is over.
        """
        if not hints:
            return [], None
        keys = [
            (hint.part_key, parent_id, name)
            for (_depth, parent_id, name, hint) in hints
        ]
        # hfs: allow(HFS106, reason=keys are path-component pks in root-down depth order; the paper's hierarchical total order (section 3.4))
        rows = tx.read_batch("inodes", keys, locks=locks, scans=scans,
                             commit=commit)
        scanned = None
        if scans is not None:
            rows, scanned = rows
        for (_depth, parent_id, name, hint), row in zip(hints, rows,
                                                        strict=True):
            if row is None or row["id"] != hint.inode_id:
                self._cache.invalidate(parent_id, name)
                if commit or (locks is not None and any(
                        m is not LockMode.READ_COMMITTED for m in locks)):
                    raise StalePathHintError(
                        f"stale inode hint for {name!r} under lock; retrying")
                return None, None  # what rode was keyed by the stale id
        return list(rows), scanned

    def _recursive_resolve(self, tx: DALTransaction,
                           components: list[str]) -> list[Optional[dict]]:
        """Component-by-component lookup; repairs the hint cache."""
        rows: list[Optional[dict]] = []
        parent = self.root_row()
        for name in components:
            row = self.lookup_child(tx, parent, name)
            if row is None:
                break
            rows.append(row)
            self._cache.put(parent["id"], name, row["id"], row["part_key"],
                            row["is_dir"], row["children_random"])
            parent = row
        return rows

    def lookup_child(self, tx: DALTransaction, parent_row: dict, name: str,
                     lock: LockMode = LockMode.READ_COMMITTED) -> Optional[dict]:
        """PK read using the parent's persistent partition rule.

        The rule (``children_random``) is fixed when the parent directory
        is created and never changes, so the computed primary key is
        authoritative — a miss means the child does not exist. This is
        what lets every path-resolution step stay a primary-key operation
        (paper Fig. 2b).
        """
        part_key = self.child_part_key(parent_row["children_random"],
                                       parent_row["id"], name)
        return tx.read("inodes", (part_key, parent_row["id"], name), lock=lock)

    def _lock_resolved(self, tx: DALTransaction, components: list[str],
                       rows: list[Optional[dict]], lock_last: LockMode,
                       lock_parent: LockMode) -> None:
        """Re-read the parent/last components at lock strength, root-down.

        Mutates ``rows`` in place. Only the recursive (cold or
        stale-hint) resolve gets here; two locked re-reads fold into one
        batched read, a single one stays a PK read.
        """
        n = len(components)
        want: list[tuple[int, tuple, LockMode]] = []
        if (n >= 2 and lock_parent is not LockMode.READ_COMMITTED
                and len(rows) >= n - 1 and rows[n - 2] is not None):
            parent_row = rows[n - 2]
            want.append((n - 2, (parent_row["part_key"],
                                 parent_row["parent_id"],
                                 parent_row["name"]), lock_parent))
        if lock_last is not LockMode.READ_COMMITTED:
            if len(rows) == n and rows[n - 1] is not None:
                last_row = rows[n - 1]
                want.append((n - 1, (last_row["part_key"],
                                     last_row["parent_id"],
                                     last_row["name"]), lock_last))
            elif len(rows) == n - 1:
                # Path missing only its last component: lock the (future)
                # pk so concurrent creates of the same name serialize.
                # The pk is derived from the parent's immutable partition
                # rule and id, so it is valid even before the parent lock
                # lands.
                parent_row = rows[n - 2] if n >= 2 else self.root_row()
                if parent_row is not None:
                    part_key = self.child_part_key(
                        parent_row["children_random"], parent_row["id"],
                        components[-1])
                    want.append((n - 1, (part_key, parent_row["id"],
                                         components[-1]), lock_last))
        if not want:
            return
        if len(want) > 1:
            # hfs: allow(HFS106, reason=want is built walking the resolved path root-down; depth order is the hierarchical total order (section 3.4))
            fresh = tx.read_batch("inodes", [pk for _i, pk, _m in want],
                                  locks=[m for _i, _pk, m in want])
        else:
            fresh = [tx.read("inodes", pk, lock=m) for _i, pk, m in want]
        for (index, _pk, _m), row in zip(want, fresh):
            if index < len(rows):
                rows[index] = row
            else:
                rows.append(row)  # may now exist (raced create)

    def _check_subtree_locks(self, resolved: ResolvedPath) -> None:
        for i, row in enumerate(resolved.rows):
            if row is None:
                return
            owner = row["subtree_lock_owner"]
            if owner == fs_schema.NO_LOCK:
                continue
            if self._is_namenode_dead(owner):
                raise StaleSubtreeLockError(
                    (row["part_key"], row["parent_id"], row["name"]), owner
                )
            raise SubtreeLockedError(
                f"{join_path(resolved.components[: i + 1])} is locked by "
                f"a subtree operation on namenode {owner}"
            )


class IdAllocator:
    """Allocates unique ids from the ``sequences`` table in leased batches.

    Each namenode leases ``batch`` ids with one small transaction and
    hands them out locally; ids are unique across namenodes and survive
    namenode restarts (ids are never reused). Thread safe.
    """

    def __init__(self, session: DALSession, sequence: str, batch: int = 1000) -> None:
        self._session = session
        self._sequence = sequence
        self._batch = batch
        self._next = 0   # guarded_by: _mutex
        self._limit = 0  # guarded_by: _mutex
        self._mutex = threading.Lock()

    def next(self) -> int:
        with self._mutex:
            if self._next >= self._limit:
                self._lease_batch(self._batch)
            value = self._next
            self._next += 1
            return value

    def next_many(self, n: int) -> list[int]:
        """Allocate ``n`` ids under one mutex acquisition.

        Drains the current lease first; a shortfall triggers at most one
        lease refill (sized up for large requests), so a bulk allocation
        costs one lock round and at most one small database transaction
        instead of ``n`` of each.
        """
        if n <= 0:
            return []
        with self._mutex:
            ids = list(range(self._next, min(self._next + n, self._limit)))
            self._next += len(ids)
            shortfall = n - len(ids)
            if shortfall:
                self._lease_batch(max(self._batch, shortfall))
                ids.extend(range(self._next, self._next + shortfall))
                self._next += shortfall
            return ids

    def _lease_batch(self, size: int) -> None:
        def fn(tx: DALTransaction) -> tuple[int, int]:
            row = tx.read("sequences", (self._sequence,), lock=LockMode.EXCLUSIVE)
            if row is None:
                raise FileSystemError(
                    f"sequence {self._sequence!r} missing; format the namespace first"
                )
            start = row["next_value"]
            tx.update("sequences", (self._sequence,),
                      {"next_value": start + size})
            return start, start + size

        # hfs: allow(HFS104, reason=private helper; next/next_many call it with _mutex already held)
        self._next, self._limit = self._session.run(
            fn, hint=("sequences", {"name": self._sequence})
        )
