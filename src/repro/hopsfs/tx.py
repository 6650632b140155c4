"""The HopsFS transaction template (paper §5, Figure 4).

Every inode operation is one DAL transaction with three phases:

1. **Lock phase** — ONE read. The resolver walks the inode hint cache
   root-down, once per attempt, into the primary key of every path
   component — :meth:`PathResolver.tx_hint` walks it to start the
   transaction on the right shard and hands the plan to the operation's
   resolve, which takes it on the first attempt only; the last
   component's key comes from its hint or, when the namenode does not
   know it (or it does not exist yet — every create), is *computed* from
   its parent's hinted id and partition rule. One *batched* primary-key
   read then fetches every component, the intermediate ones at
   read-committed (no locks) and, in the same read, the last component
   (and, for mutating/listing operations, its parent) with the strongest
   lock the operation will need — never upgraded later, never re-read —
   in root-down order, which is the global total order that keeps lock
   acquisition deadlock free. File-inode related rows are read with
   partition-pruned index scans in a fixed table order: the operation
   names them (``scans_for``) and, the last hint naming the partition
   they are pruned to (the inode's id), the batched read ships them too
   (``scans=``: one ``execute()``); an operation whose resolve is its
   last database access has it carry the commit as well (``commit=True``:
   ``execute(Commit)``) — a warm ``stat``/``read``/``ls`` is one round
   trip and, over the wire, one request. Every hinted row is validated
   by id; a hint found stale under a lock or a ridden commit aborts and
   retries (:class:`StalePathHintError`), stale with nothing held walks
   again. There is one resolver and one fallback: when the walk does
   not reach the parent (a cold or invalidated prefix) the resolver reads
   component by component at read-committed, repairing the cache, and
   then issues **the same** batched read over the rows it just found.
   A last component that exists but was not hinted — or the root, which
   no hint names — has its scans issued by the resolver right after the
   read: the only place a scan that could not ride is issued.
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
#: component's hint alone — the cached one, in which case the scans ship
#: with the batched read, or one made from the row just read, in which
#: case the resolver issues them itself: the pruned scans, ``[]`` for
#: "nothing more", None for "cannot tell" (e.g. the listing of a
#: ``children_random`` directory is an all-shard scan)
ScansFor = Callable[[InodeHint], Optional[list[tuple[str, Mapping[str, Any]]]]]

#: the keys of one batched path read, root-down, and per key the hint it
#: came from — None for a last component whose key was computed
Plan = tuple[list[tuple], list[Optional[InodeHint]]]

#: the plan :meth:`PathResolver.tx_hint` built, with the path's
#: components: the first resolve of that path pops it, a retry walks anew
Handoff = list[tuple[list[str], Plan]]


def _hint_of(row: Mapping[str, Any]) -> InodeHint:
    return InodeHint(row["id"], row["part_key"], row["is_dir"],
                     row["children_random"])


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
        "sub_tables": 0,
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
    #: what the operation's ``scans_for`` scans found, in the order it
    #: listed them, whether they rode the batched read or the resolver
    #: issued them after it; None when the operation named none, the path
    #: does not exist or ``scans_for`` itself could not tell
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

    # -- the hint walk ---------------------------------------------------------------

    def _hinted_plan(self, components: list[str]) -> Optional[Plan]:
        """Walk the hint cache root-down, under one hold of its mutex,
        into the keys of one batched read; every component but the last
        must be hinted."""
        return self._plan(components,
                          *self._cache.walk(fs_schema.ROOT_ID, components))

    def _plan_of_rows(self, components: list[str],
                      rows: list[dict]) -> Optional[Plan]:
        """The same plan, built from the rows a recursive walk just read."""
        return self._plan(components, [(row["part_key"], row["parent_id"],
                                        row["name"]) for row in rows],
                          [_hint_of(row) for row in rows])

    def _plan(self, components: list[str], keys: list[tuple],
              hints: list[Optional[InodeHint]]) -> Optional[Plan]:
        """The plan of a path whose leading components have these keys:
        a last one unhinted or not existing yet gets its key *computed*
        from the parent's id and partition rule, both immutable per
        inode id. None when the path stops above the parent (nothing to
        lock, nothing to scan)."""
        missing = len(components) - len(keys)
        if missing == 1:
            parent = hints[-1] if hints else None
            parent_id = parent.inode_id if parent else fs_schema.ROOT_ID
            keys.append((self.child_part_key(
                parent.children_random if parent else self._random_depth >= 1,
                parent_id, components[-1]), parent_id, components[-1]))
            hints.append(None)
        return (keys, hints) if missing <= 1 else None

    def tx_hint(self, path: str, file_rows: bool = False,
                ) -> tuple[Optional[tuple[str, dict]], Handoff]:
        """Partition-key hint: start the transaction on the shard that
        holds the last path component (paper Fig. 4, line 2) or, with
        ``file_rows`` and the file known to the cache, on the shard its
        blocks and replicas are partitioned to (Figure 3: read
        ``/user/foo.txt`` on the shard holding foo.txt's blocks) — and
        the plan the walk built, for the operation's resolve of
        ``path`` to take."""
        components = split_path(path)
        plan = self._hinted_plan(components) if components else None
        if plan is None:
            return None, []
        keys, hints = plan
        hint = (("blocks", {"inode_id": hints[-1].inode_id})
                if file_rows and hints[-1] is not None
                else ("inodes", {"part_key": keys[-1][0]}))
        return hint, [(components, plan)]

    # -- resolution ----------------------------------------------------------------

    def resolve(self, tx: DALTransaction, path: str,
                lock_last: LockMode = LockMode.READ_COMMITTED,
                lock_parent: LockMode = LockMode.READ_COMMITTED,
                check_subtree_locks: bool = True,
                scans_for: Optional[ScansFor] = None,
                last_access: bool = False,
                plan: Optional[Handoff] = None) -> ResolvedPath:
        """Resolve ``path``, locking the parent and last components — the
        lock phase of the module docstring: the hint walk, then
        :meth:`_read_plan`; a walk that does not reach the parent is first
        repaired by :meth:`_recursive_resolve`, and the same read then
        runs over the rows just found if there is anything to lock, scan
        or commit.

        ``scans_for`` names the scans the operation runs next: they ride
        the batched read when the last component is hinted, else the
        resolver issues them once it knows the row
        (:attr:`ResolvedPath.scanned`). ``last_access`` says the resolve
        (with those scans) is the transaction's last database access:
        when nothing is left to read the commit rides too and the
        transaction comes back ``COMMITTED``; otherwise it stays open and
        the operation commits as if it had not said so. ``plan`` is what
        :meth:`tx_hint` handed the operation for ``path``: taken once, so
        a retry walks the cache again, past the hint found stale.
        """
        components, handed = plan.pop() if plan else (split_path(path),
                                                      None)
        resolved = ResolvedPath(path=path, components=components,
                                root=self.root_row())
        want_batch = (lock_last is not LockMode.READ_COMMITTED
                      or lock_parent is not LockMode.READ_COMMITTED
                      or scans_for is not None or last_access)
        hinted_last = False  # "/" is no cache entry: its scans follow too
        if components:
            with span("resolve", depth=len(components)) as resolve_span:
                rows, recursive = None, False
                while rows is None:
                    walked = handed or self._hinted_plan(components)
                    handed = None
                    if walked is None:
                        recursive = True  # sticky: the walk that found the rows
                        rows = self._recursive_resolve(tx, components)
                        if want_batch:
                            walked = self._plan_of_rows(components, rows)
                    if walked is not None:
                        # (None, None): a hint was stale, nothing held — re-walk
                        rows, resolved.scanned = self._read_plan(
                            tx, walked, lock_last, lock_parent, scans_for,
                            last_access)
                        hinted_last = walked[1][-1] is not None
                resolved.rows = rows
                if recursive:
                    self.recursive_resolutions += 1
                else:
                    self.batched_resolutions += 1
                if resolve_span is not None:
                    resolve_span.set_label(
                        "method", "recursive" if recursive else "batched")
        last = resolved.last
        if scans_for is not None and not hinted_last and last is not None:
            scans = scans_for(_hint_of(last))
            if scans is not None:
                resolved.scanned = tx.ppis_batch(scans)
        if check_subtree_locks:
            self.check_subtree_locks(resolved)
        # intermediate components must be directories
        for i, row in enumerate(resolved.rows[:-1]):
            if row is not None and not row["is_dir"]:
                raise ParentNotDirectoryError(
                    f"{join_path(components[: i + 1])} is not a directory"
                )
        return resolved

    def _read_plan(self, tx: DALTransaction, plan: Plan,
                   lock_last: LockMode, lock_parent: LockMode,
                   scans_for: Optional[ScansFor], last_access: bool,
                   ) -> tuple[Optional[list[Optional[dict]]],
                              Optional[list[list[dict]]]]:
        """The lock phase: ONE batched PK read for a whole plan, taking
        the parent/last locks and carrying the operation's scans (the
        last hint names the id they are pruned to) and, with nothing left
        to read, its commit.

        Every hinted row is validated by id. A hint found stale under a
        lock or a ridden commit raises :class:`StalePathHintError` — a
        lock sits on a key the path no longer maps to, or the transaction
        is over; stale with nothing held returns ``(None, None)``. An
        unhinted last row is learned into the cache.
        """
        keys, hints = plan
        locks = None
        if (lock_last is not LockMode.READ_COMMITTED
                or lock_parent is not LockMode.READ_COMMITTED):
            locks = [LockMode.READ_COMMITTED] * len(keys)
            if len(keys) >= 2:
                locks[-2] = lock_parent
            locks[-1] = lock_last
        scans, commit = None, last_access
        if scans_for is not None:
            if hints[-1] is not None:
                scans = scans_for(hints[-1])
            commit = last_access and scans is not None
        rows = tx.read_batch("inodes", keys, locks=locks, scans=scans,
                             commit=commit)
        scanned = None
        if scans is not None:
            rows, scanned = rows
        for (_part_key, parent_id, name), hint, row in zip(keys, hints, rows,
                                                           strict=True):
            if hint is None:
                if row is not None:
                    self._cache.put(parent_id, name, row["id"],
                                    row["part_key"], row["is_dir"],
                                    row["children_random"])
            elif row is None or row["id"] != hint.inode_id:
                self._cache.invalidate(parent_id, name)
                if commit or locks is not None:
                    raise StalePathHintError(
                        f"stale inode hint for {name!r} under lock; retrying")
                return None, None  # what rode was keyed by the stale id
        return list(rows), scanned

    def _recursive_resolve(self, tx: DALTransaction,
                           components: list[str]) -> list[dict]:
        """Component-by-component lookup; repairs the hint cache."""
        rows: list[dict] = []
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

    def lookup_child(self, tx: DALTransaction, parent_row: dict,
                     name: str) -> Optional[dict]:
        """PK read using the parent's persistent partition rule.

        The rule (``children_random``) is fixed when the parent directory
        is created and never changes, so the computed primary key is
        authoritative — a miss means the child does not exist. This is
        what lets every path-resolution step stay a primary-key operation
        (paper Fig. 2b).
        """
        part_key = self.child_part_key(parent_row["children_random"],
                                       parent_row["id"], name)
        return tx.read("inodes", (part_key, parent_row["id"], name))

    def check_subtree_locks(self, resolved: ResolvedPath) -> None:
        """Abort on a subtree-lock flag anywhere along ``resolved``."""
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
                self._lease_batch()
            value = self._next
            self._next += 1
            return value

    def _lease_batch(self) -> None:
        """Lease the next ``batch`` ids (the caller holds ``_mutex``)."""

        def fn(tx: DALTransaction) -> tuple[int, int]:
            row = tx.read("sequences", (self._sequence,), lock=LockMode.EXCLUSIVE)
            if row is None:
                raise FileSystemError(
                    f"sequence {self._sequence!r} missing; format the namespace first"
                )
            start = row["next_value"]
            tx.update("sequences", (self._sequence,),
                      {"next_value": start + self._batch})
            return start, start + self._batch

        self._next, self._limit = self._session.run(
            fn, hint=("sequences", {"name": self._sequence})
        )
