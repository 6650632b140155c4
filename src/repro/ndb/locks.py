"""Row-level lock manager: shared/exclusive locks, waits, deadlocks.

NDB offers read-committed isolation only; serializability of HopsFS
operations comes from row locks taken inside transactions (paper §2.2.2,
§5). This manager provides:

* ``SHARED`` and ``EXCLUSIVE`` row locks plus lock-free
  ``READ_COMMITTED`` reads;
* reentrant acquisition and S→X upgrades (granted immediately for a sole
  owner, queued otherwise — the paper §5 explains why HopsFS avoids
  upgrades entirely by reading at the strongest level up front);
* strict FIFO wait queues per row (no starvation);
* wait timeouts (NDB's TransactionInactiveTimeout) and wait-for-graph
  deadlock detection that fails fast with :class:`DeadlockError`.

Locks are logically held at the primary replica of the row's partition; we
keep them in one manager per cluster, which is equivalent for correctness
since there is exactly one primary per partition at any time.

**One table, one condition.** The rows, the keys each owner holds, the
failover abort marks and the blocked requests all sit behind one
``threading.Condition``, which a waiter releases while it waits. The
uncontended path is one mutex acquire, a grant and a return; the queue
is only entered on conflict. Because the whole wait-for graph is under
that one mutex, deadlock detection is exact: the search follows each
blocked owner's one pending request and reads its blockers off the row
as it is now, so it never sees a stale edge. Timeouts remain for waits
on a holder that is not itself blocked (a slow or stuck transaction).
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.errors import DeadlockError, LockTimeoutError, TransactionAbortedError
from repro.faults import fault_point
from repro.metrics.registry import (CounterMetric, HistogramMetric,
                                    MetricsRegistry)
from repro.metrics.tracing import span as trace_span
from repro.util.park import park


class LockMode(enum.Enum):
    READ_COMMITTED = "rc"   # no lock taken
    SHARED = "s"
    EXCLUSIVE = "x"


class _Request:
    __slots__ = ("owner", "mode", "granted", "cancelled")

    def __init__(self, owner: Hashable, mode: LockMode) -> None:
        self.owner = owner
        self.mode = mode
        self.granted = False
        #: taken out of the queue unserved, because its owner was aborted
        self.cancelled = False


class _RowLock:
    __slots__ = ("key", "owners", "queue")

    def __init__(self, key: Any) -> None:
        self.key = key
        self.owners: dict[Hashable, LockMode] = {}
        self.queue: deque[_Request] = deque()

    def idle(self) -> bool:
        return not self.owners and not self.queue

    def grantable(self, owner: Hashable, mode: LockMode) -> bool:
        """Whether a new request of ``owner`` is granted without queueing."""
        held = self.owners.get(owner)
        if held is LockMode.EXCLUSIVE:
            return True  # reentrant; X covers S
        if held is LockMode.SHARED:
            # S again, or the sole-owner upgrade
            return mode is LockMode.SHARED or len(self.owners) == 1
        # new acquisition: respect FIFO queue
        if self.queue:
            return False
        if mode is LockMode.SHARED:
            return all(m is LockMode.SHARED for m in self.owners.values())
        return not self.owners

    def admits(self, request: _Request) -> bool:
        """Whether the queue's head ``request`` is compatible with the
        row's current holders."""
        owner = request.owner
        if self.owners.get(owner) is LockMode.EXCLUSIVE:
            return True
        others = [m for o, m in self.owners.items() if o != owner]
        return not others or (request.mode is LockMode.SHARED
                              and LockMode.EXCLUSIVE not in others)

    def blockers(self, request: _Request) -> set[Hashable]:
        """The owners a queued ``request`` waits on: the row's other
        holders and the owners queued ahead of it."""
        found = set(self.owners)
        for queued in self.queue:
            if queued is request:
                break
            found.add(queued.owner)
        found.discard(request.owner)
        return found


def _in_cycle(waiting: dict[Hashable, tuple[_RowLock, _Request]],
              start: Hashable) -> bool:
    """Whether ``start``'s wait closes a cycle in the wait-for graph.

    ``waiting`` maps each blocked owner to its row and pending request;
    an owner's edges are that request's blockers as the row stands now,
    and an owner missing from the map is running, so it has none.
    """
    stack = [start]
    seen = {start}
    while stack:
        entry = waiting.get(stack.pop())
        if entry is None:
            continue
        row, request = entry
        for blocker in row.blockers(request):
            if blocker == start:
                return True
            if blocker not in seen:
                seen.add(blocker)
                stack.append(blocker)
    return False


class LockManager:
    """Cluster-wide row lock table.

    ``owner`` handles are opaque hashable tokens (transaction objects).
    An owner whose transaction is aborted externally (e.g. its coordinator
    node died) is woken via :meth:`abort_waiters` and raises
    :class:`TransactionAbortedError` out of its pending acquire; the
    abort's :meth:`release_all` withdraws that pending request too, so it
    is never granted afterwards.
    """

    #: optionally installed repro.analysis.lockwitness.LockWitness; class
    #: level so tests can hook every manager without monkeypatching
    _witness = None

    def __init__(self, timeout: float = 1.2,
                 shard_of: Optional[Callable[[Any], Optional[int]]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 shard_op_seconds: Optional[
                     Callable[[Any, str], HistogramMetric]] = None) -> None:
        self._timeout = timeout
        #: the owning cluster's metrics registry; a bare manager has none
        #: and records its waits in the counters below only
        self._registry = registry
        #: ``(ndb_lock_wait_seconds_total, ndb_lock_waits_total)``, made on
        #: the first wait so an idle engine exports neither
        # guarded_by: GIL -- racing fillers store the registry's one pair
        self._wait_counters: Optional[tuple[CounterMetric, CounterMetric]] = None
        #: the owner's ``ndb_shard_op_seconds{shard,kind}`` handle cache
        #: (``NDBCluster._shard_op_seconds``), for a wait's ``lock_wait``
        self._shard_op_seconds = shard_op_seconds
        #: optional (table, pk) -> partition id resolver, so lock_wait
        #: spans and ndb_shard_op_seconds carry the shard being waited on
        self._shard_of = shard_of
        self._cond = threading.Condition()
        self._rows: dict[Any, _RowLock] = {}  # guarded_by: _cond
        #: the keys each owner holds, so release_all visits only those
        self._held: dict[Hashable, set[Any]] = {}  # guarded_by: _cond
        #: owners a failover aborted, marked until their release_all
        self._aborted: set[Hashable] = set()  # guarded_by: _cond
        #: each blocked owner's row and pending request: the vertices of
        #: the wait-for graph, whose edges are read off the rows
        self._waiting: dict[Hashable, tuple[_RowLock, _Request]] = {}  # guarded_by: _cond
        # monitoring; the engine's gauges read these without the mutex
        self.waits = 0  # guarded_by: _cond [writes]
        self.deadlocks = 0  # guarded_by: _cond [writes]
        self.timeouts = 0  # guarded_by: _cond [writes]
        self.wait_seconds = 0.0  # guarded_by: _cond [writes]

    # -- public API -----------------------------------------------------------

    def acquire(self, owner: Hashable, key: Any, mode: LockMode,
                timeout: Optional[float] = None) -> None:
        """Acquire ``mode`` on ``key`` for ``owner``; blocks if conflicting.

        READ_COMMITTED is a no-op (lock-free read). Raises
        :class:`LockTimeoutError`, :class:`DeadlockError` or
        :class:`TransactionAbortedError`.
        """
        if mode is LockMode.READ_COMMITTED:
            return
        fault_point("ndb.lock.acquire", mode=mode.value)
        witness = LockManager._witness
        if witness is not None:
            witness.row_requested(self, owner, key, mode.value)
        # the wait's metrics record after _cond is left: every grant and
        # release in the engine takes it
        waited = None
        try:
            with self._cond:
                if owner in self._aborted:
                    raise TransactionAbortedError("transaction was aborted")
                row = self._rows.get(key)
                if row is None:
                    row = self._rows[key] = _RowLock(key)
                if row.grantable(owner, mode):
                    # uncontended fast path: grant without touching the queue
                    self._grant(row, owner, mode)
                    if witness is not None:
                        witness.row_granted(self, owner, key, mode.value)
                    return
                request = _Request(owner, mode)
                if owner in row.owners:
                    # lock upgrade: jump ahead of ordinary waiters, behind other
                    # upgrades already queued at the front.
                    insert_at = 0
                    while insert_at < len(row.queue) and row.queue[insert_at].owner in row.owners:
                        insert_at += 1
                    row.queue.insert(insert_at, request)
                else:
                    row.queue.append(request)
                self._waiting[owner] = (row, request)
                self.waits += 1
                deadline = time.monotonic() + (timeout if timeout is not None
                                               else self._timeout)
                table = key[0] if isinstance(key, tuple) and key else "?"
                shard = self._shard_of(key) if self._shard_of is not None else None
                started = time.monotonic()
                try:
                    with trace_span("lock_wait", mode=mode.value, table=table,
                                    shard="-" if shard is None else shard):
                        # once is enough: a queued request's blockers only
                        # shrink (a new holder comes from the queue ahead of
                        # it), so only a new request can close a cycle, and
                        # its owner finds it here
                        if _in_cycle(self._waiting, owner):
                            self.deadlocks += 1
                            raise DeadlockError(
                                f"deadlock detected while locking {key!r}")
                        while not request.granted:
                            if request.cancelled or owner in self._aborted:
                                raise TransactionAbortedError(
                                    "transaction was aborted while waiting")
                            remaining = deadline - time.monotonic()
                            if remaining <= 0:
                                self.timeouts += 1
                                raise LockTimeoutError(f"lock wait timeout on {key!r}")
                            park()
                            self._cond.wait(remaining)
                finally:
                    waited = time.monotonic() - started
                    self.wait_seconds += waited
                    self._withdraw(row, request)
                if witness is not None:
                    witness.row_granted(self, owner, key, mode.value)
        finally:
            if waited is not None:
                self._record_wait(shard, waited)

    def acquire_many(self, owner: Hashable, keys: Iterable[Any], mode: LockMode,
                     timeout: Optional[float] = None,
                     modes: Optional[Iterable[LockMode]] = None) -> None:
        """Acquire ``mode`` on every key, the uncontended ones in one visit.

        ``keys`` must already be in a deadlock-free total order (sorted
        PKs / root-down path order, §5) — grants happen in exactly that
        order, so the witness sees the same edge sequence as a per-key
        loop. ``modes`` optionally gives a per-key mode (parallel to
        ``keys``); READ_COMMITTED entries are skipped.

        The batched phase takes the mutex once and self-grants keys in
        order until the first one that conflicts; it and everything after
        it fall back to ordered blocking :meth:`acquire` calls, so FIFO
        queueing and deadlock detection behave exactly as per key.
        """
        if modes is None:
            wanted = [(key, mode) for key in keys
                      if mode is not LockMode.READ_COMMITTED]
        else:
            wanted = [(key, kmode) for key, kmode in zip(keys, modes)
                      if kmode is not LockMode.READ_COMMITTED]
        if not wanted:
            return
        fault_point("ndb.lock.acquire", mode=mode.value, batch=len(wanted))
        witness = LockManager._witness
        granted = 0
        with self._cond:
            if owner in self._aborted:
                raise TransactionAbortedError("transaction was aborted")
            rows = self._rows
            for key, kmode in wanted:
                row = rows.get(key)
                if row is None:
                    row = rows[key] = _RowLock(key)
                elif not row.grantable(owner, kmode):
                    break
                if witness is not None:
                    witness.row_requested(self, owner, key, kmode.value)
                self._grant(row, owner, kmode)
                if witness is not None:
                    witness.row_granted(self, owner, key, kmode.value)
                granted += 1
        # remainder: contended keys block one at a time, in caller order
        for key, kmode in wanted[granted:]:
            # hfs: allow(HFS102, reason=keys arrive pre-sorted in the global total order per the docstring contract; re-sorting here would break root-down path order)
            self.acquire(owner, key, kmode, timeout=timeout)

    def release_all(self, owner: Hashable) -> None:
        """Release every lock held by ``owner`` and wake eligible waiters.

        A request ``owner`` is still queued on is withdrawn as well, and
        its waiter raises :class:`TransactionAbortedError`: this is how a
        failover abort reaches a victim blocked in :meth:`acquire`, even
        one that has not run since :meth:`abort_waiters` marked it.
        """
        with self._cond:
            pending = self._waiting.get(owner)
            if pending is not None:
                self._withdraw(*pending)
                self._cond.notify_all()
            for key in self._held.pop(owner, ()):
                row = self._rows[key]
                del row.owners[owner]
                self._dispatch(row)
            self._aborted.discard(owner)
        witness = LockManager._witness
        if witness is not None:
            witness.owner_released(self, owner)

    def abort_waiters(self, owners: Iterable[Hashable]) -> None:
        """Mark owners aborted so their pending acquires fail immediately."""
        with self._cond:
            self._aborted.update(owners)
            self._cond.notify_all()

    def is_aborted(self, owner: Hashable) -> bool:
        """Whether ``owner`` carries a pending failover-abort mark."""
        with self._cond:
            return owner in self._aborted

    def holders(self, key: Any) -> dict[Hashable, LockMode]:
        with self._cond:
            row = self._rows.get(key)
            return dict(row.owners) if row else {}

    def held_keys(self, owner: Hashable) -> set[Any]:
        with self._cond:
            return set(self._held.get(owner, ()))

    def lock_table_size(self) -> int:
        with self._cond:
            return len(self._rows)

    def _record_wait(self, shard: Optional[int], waited: float) -> None:
        """Record one finished wait in the owning cluster's registry."""
        registry = self._registry
        if registry is None:
            return
        counters = self._wait_counters
        if counters is None:
            counters = self._wait_counters = (
                registry.counter("ndb_lock_wait_seconds_total"),
                registry.counter("ndb_lock_waits_total"))
        counters[0].inc(waited)
        counters[1].inc()
        if shard is not None and self._shard_op_seconds is not None:
            self._shard_op_seconds(shard, "lock_wait").observe(waited)

    # -- internals (the caller holds _cond) -------------------------------------

    def _grant(self, row: _RowLock, owner: Hashable, mode: LockMode) -> None:
        held = row.owners.get(owner)
        if held is None:
            row.owners[owner] = mode
            # hfs: allow(HFS104, reason=private helper; every caller holds _cond)
            self._held.setdefault(owner, set()).add(row.key)
        elif mode is LockMode.EXCLUSIVE:
            row.owners[owner] = mode

    def _dispatch(self, row: _RowLock) -> None:
        """Grant queued requests from the front while compatible, drop
        the row once idle, and wake the waiters if a request left the
        queue."""
        # hfs: allow(HFS104, reason=private helper; every caller holds _cond)
        rows, aborted, waiting = self._rows, self._aborted, self._waiting
        queue = row.queue
        served = False
        while queue:
            head = queue[0]
            if head.owner in aborted:
                head.cancelled = True  # its waiter wakes to raise
            elif row.admits(head):
                self._grant(row, head.owner, head.mode)
                head.granted = True
            else:
                break
            queue.popleft()
            waiting.pop(head.owner, None)
            served = True
        if row.idle():
            rows.pop(row.key, None)
        if served:
            self._cond.notify_all()

    def _withdraw(self, row: _RowLock, request: _Request) -> None:
        """Take a request that is still queued out of its row's queue."""
        if request.granted or request.cancelled:
            return
        request.cancelled = True
        row.queue.remove(request)
        # hfs: allow(HFS104, reason=private helper; every caller holds _cond)
        self._waiting.pop(request.owner, None)
        self._dispatch(row)
