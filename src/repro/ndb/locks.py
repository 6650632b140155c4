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

**One table, one mutex.** A row's entry is its holders, and an
uncontended row is nothing more: a new grant is one dict store plus one
append to the owner's key list, and ``release_all`` deletes the entry. A
row gets a FIFO wait queue at its first conflict and loses it when the
queue drains. The rows, the queues, the keys each owner holds, the
failover abort marks and the blocked requests all sit behind one
``threading.Lock``; a waiter sleeps on the ``threading.Condition`` that
wraps it. Because the whole wait-for graph is under that one mutex,
deadlock detection is exact: the search follows each blocked owner's one
pending request and reads its blockers off the row as it is now, so it
never sees a stale edge. Timeouts remain for waits on a holder that is
not itself blocked (a slow or stuck transaction).
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


def _admits(holders: dict[Hashable, LockMode], request: _Request) -> bool:
    """Whether a queue's head ``request`` is compatible with its row's
    ``holders``."""
    owner = request.owner
    if holders.get(owner) is LockMode.EXCLUSIVE:
        return True
    others = [m for o, m in holders.items() if o != owner]
    return not others or (request.mode is LockMode.SHARED
                          and LockMode.EXCLUSIVE not in others)


def _in_cycle(waiting: dict[Hashable, tuple[Any, _Request]],
              rows: dict[Any, dict[Hashable, LockMode]],
              queues: dict[Any, deque[_Request]], start: Hashable) -> bool:
    """Whether ``start``'s wait closes a cycle in the wait-for graph.

    ``waiting`` maps each blocked owner to its key and pending request;
    an owner's edges are that request's blockers as the row stands now
    (its other holders and the owners queued ahead of it), and an owner
    missing from the map is running, so it has none.
    """
    stack = [start]
    seen = {start}
    while stack:
        entry = waiting.get(stack.pop())
        if entry is None:
            continue
        key, request = entry
        blockers = set(rows[key])
        for queued in queues[key]:
            if queued is request:
                break
            blockers.add(queued.owner)
        blockers.discard(request.owner)
        for blocker in blockers:
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
        self._mutex = threading.Lock()
        #: what a waiter sleeps on; it wraps ``_mutex``
        self._cond = threading.Condition(self._mutex)
        #: each held row's holders; a row nobody holds has no entry
        self._rows: dict[Any, dict[Hashable, LockMode]] = {}  # guarded_by: _mutex
        #: each contended row's FIFO queue, until it drains
        self._queues: dict[Any, deque[_Request]] = {}  # guarded_by: _mutex
        #: the keys each owner holds, so release_all visits only those
        self._held: dict[Hashable, list[Any]] = {}  # guarded_by: _mutex
        #: owners a failover aborted, marked until their release_all
        self._aborted: set[Hashable] = set()  # guarded_by: _mutex
        #: each blocked owner's key and pending request: the vertices of
        #: the wait-for graph, whose edges are read off the rows
        self._waiting: dict[Hashable, tuple[Any, _Request]] = {}  # guarded_by: _mutex
        # monitoring; the engine's gauges read these without the mutex
        self.waits = 0  # guarded_by: _mutex [writes]
        self.deadlocks = 0  # guarded_by: _mutex [writes]
        self.timeouts = 0  # guarded_by: _mutex [writes]
        self.wait_seconds = 0.0  # guarded_by: _mutex [writes]

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
        fault_point("ndb.lock.acquire", mode=mode._value_)
        witness = LockManager._witness
        if witness is not None:
            witness.row_requested(self, owner, key, mode.value)
        # the wait's metrics record after the mutex is left: every grant
        # and release in the engine takes it
        waited = None
        try:
            with self._mutex:
                if owner in self._aborted:
                    raise TransactionAbortedError("transaction was aborted")
                holders = self._rows.get(key)
                if holders is None or self._try_grant(key, holders, owner, mode):
                    # uncontended fast path: grant without a queue
                    if holders is None:
                        self._rows[key] = {owner: mode}
                        self._hold(owner, key)
                    if witness is not None:
                        witness.row_granted(self, owner, key, mode.value)
                    return
                request = _Request(owner, mode)
                queue = self._queues.setdefault(key, deque())
                if owner in holders:
                    # lock upgrade: jump ahead of ordinary waiters, behind other
                    # upgrades already queued at the front.
                    insert_at = 0
                    while insert_at < len(queue) and queue[insert_at].owner in holders:
                        insert_at += 1
                    queue.insert(insert_at, request)
                else:
                    queue.append(request)
                self._waiting[owner] = (key, request)
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
                        if _in_cycle(self._waiting, self._rows, self._queues, owner):
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
                    self._withdraw(key, request)
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
        fault_point("ndb.lock.acquire", mode=mode._value_, batch=len(wanted))
        witness = LockManager._witness
        granted = 0
        with self._mutex:
            if owner in self._aborted:
                raise TransactionAbortedError("transaction was aborted")
            rows = self._rows
            held = self._held.get(owner)
            if held is None:
                held = self._held[owner] = []
            for key, kmode in wanted:
                holders = rows.get(key)
                if holders is None:
                    rows[key] = {owner: kmode}
                    held.append(key)
                elif not self._try_grant(key, holders, owner, kmode):
                    break
                if witness is not None:
                    witness.row_requested(self, owner, key, kmode.value)
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
        with self._mutex:
            pending = self._waiting.get(owner)
            if pending is not None:
                self._withdraw(*pending)
                self._cond.notify_all()
            rows, queues = self._rows, self._queues
            for key in self._held.pop(owner, ()):
                holders = rows[key]
                del holders[owner]
                if key in queues:
                    self._dispatch(key)
                elif not holders:
                    del rows[key]
            self._aborted.discard(owner)
        witness = LockManager._witness
        if witness is not None:
            witness.owner_released(self, owner)

    def abort_waiters(self, owners: Iterable[Hashable]) -> None:
        """Mark owners aborted so their pending acquires fail immediately."""
        with self._mutex:
            self._aborted.update(owners)
            self._cond.notify_all()

    def is_aborted(self, owner: Hashable) -> bool:
        """Whether ``owner`` carries a pending failover-abort mark."""
        with self._mutex:
            return owner in self._aborted

    def holders(self, key: Any) -> dict[Hashable, LockMode]:
        with self._mutex:
            return dict(self._rows.get(key, ()))

    def held_keys(self, owner: Hashable) -> set[Any]:
        with self._mutex:
            return set(self._held.get(owner, ()))

    def lock_table_size(self) -> int:
        with self._mutex:
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

    # -- internals (the caller holds _mutex) ------------------------------------

    def _hold(self, owner: Hashable, key: Any) -> None:
        """Add ``key`` to the keys ``owner`` holds."""
        held = self._held.get(owner)
        if held is None:
            self._held[owner] = [key]
        else:
            held.append(key)

    def _try_grant(self, key: Any, holders: dict[Hashable, LockMode],
                   owner: Hashable, mode: LockMode) -> bool:
        """Grant ``mode`` on the held row ``key`` to ``owner`` unless that
        has to wait."""
        held = holders.get(owner)
        if held is LockMode.EXCLUSIVE or held is mode:
            return True  # reentrant; X covers S
        if held is None:
            # a new holder: FIFO behind a queue, and S only beside S
            if (key in self._queues or mode is LockMode.EXCLUSIVE
                    or LockMode.EXCLUSIVE in holders.values()):
                return False
            self._hold(owner, key)
        elif len(holders) > 1:
            return False  # the upgrade waits for the other holders
        holders[owner] = mode
        return True

    def _dispatch(self, key: Any) -> None:
        """Grant queued requests from the front while compatible, drop
        the queue once drained and the row once idle, and wake the
        waiters if a request left the queue."""
        rows, queues, aborted, waiting = self._rows, self._queues, self._aborted, self._waiting
        holders, queue = rows[key], queues[key]
        served = False
        while queue:
            head = queue[0]
            if head.owner in aborted:
                head.cancelled = True  # its waiter wakes to raise
            elif _admits(holders, head):
                if head.owner not in holders:
                    self._hold(head.owner, key)
                holders[head.owner] = head.mode
                head.granted = True
            else:
                break
            queue.popleft()
            waiting.pop(head.owner, None)
            served = True
        if not queue:
            del queues[key]
            if not holders:
                del rows[key]
        if served:
            self._cond.notify_all()

    def _withdraw(self, key: Any, request: _Request) -> None:
        """Take a request that is still queued out of its row's queue."""
        if request.granted or request.cancelled:
            return
        request.cancelled = True
        self._queues[key].remove(request)
        self._waiting.pop(request.owner, None)
        self._dispatch(key)
