"""Row-level lock manager: striped shared/exclusive locks, waits, deadlocks.

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

**Striping.** The lock table is hash-partitioned over ``stripes``
independent stripes, each with its own mutex/condvar and row map, so lock
traffic on unrelated rows never serializes on a shared condition — the
shared-nothing property NDB's LDM threads have for real. The uncontended
path is one stripe-mutex acquire, a grant, and a return; the wait-queue
machinery is only entered on conflict. Cross-stripe deadlock detection
works on a shared *wait-for edge registry*: every waiting thread publishes
its current blocker set into a plain dict (GIL-atomic single-reference
updates, no lock), and the cycle search runs over a snapshot of those
edges. Edges can be momentarily stale — a request granted between
publish and search — so a detected cycle is re-confirmed once before
raising, and wall-clock timeouts remain the backstop for anything the
registry misses.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.errors import DeadlockError, LockTimeoutError, TransactionAbortedError
from repro.faults import fault_point
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import span as trace_span
from repro.util.park import park


class LockMode(enum.Enum):
    READ_COMMITTED = "rc"   # no lock taken
    SHARED = "s"
    EXCLUSIVE = "x"


class _Request:
    __slots__ = ("owner", "mode", "granted")

    def __init__(self, owner: Hashable, mode: LockMode) -> None:
        self.owner = owner
        self.mode = mode
        self.granted = False


class _RowLock:
    __slots__ = ("owners", "queue")

    def __init__(self) -> None:
        self.owners: dict[Hashable, LockMode] = {}
        self.queue: deque[_Request] = deque()

    def idle(self) -> bool:
        return not self.owners and not self.queue


class _Stripe:
    """One lock-table stripe: private condvar, rows and held-key index."""

    __slots__ = ("index", "cond", "rows", "held", "waits", "deadlocks",
                 "timeouts", "wait_seconds")

    def __init__(self, index: int) -> None:
        self.index = index
        self.cond = threading.Condition()
        self.rows: dict[Any, _RowLock] = {}
        #: keys in *this stripe* held per owner
        self.held: dict[Hashable, set[Any]] = {}
        # monitoring (per stripe; aggregated by the manager)
        self.waits = 0
        self.deadlocks = 0
        self.timeouts = 0
        self.wait_seconds = 0.0


class LockManager:
    """Cluster-wide striped row lock table.

    ``owner`` handles are opaque hashable tokens (transaction objects).
    An owner whose transaction is aborted externally (e.g. its coordinator
    node died) is woken via :meth:`abort_waiters` and raises
    :class:`TransactionAbortedError` out of its pending acquire.
    """

    #: optionally installed repro.analysis.lockwitness.LockWitness; class
    #: level so tests can hook every manager without monkeypatching
    _witness = None

    def __init__(self, timeout: float = 1.2, deadlock_detection: bool = True,
                 stripes: int = 16,
                 shard_of: Optional[Callable[[Any], Optional[int]]] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self._timeout = timeout
        self._deadlock_detection = deadlock_detection
        #: the owning cluster's metrics registry; a bare manager has none
        #: and records its waits in the stripe counters only
        self._registry = registry
        #: optional (table, pk) -> partition id resolver, so lock_wait
        #: spans and ndb_shard_op_seconds carry the shard being waited on
        self._shard_of = shard_of
        self._stripes = [_Stripe(i) for i in range(max(1, stripes))]
        #: which stripes each owner holds keys in (inner lock order is
        #: stripe -> owner_mutex; release_all reads it before any stripe)
        self._owner_stripes: dict[Hashable, set[int]] = {}  # guarded_by: _owner_mutex
        self._owner_mutex = threading.Lock()
        self._aborted: set[Hashable] = set()  # guarded_by: _abort_mutex [writes]
        self._abort_mutex = threading.Lock()
        #: shared wait-for edge registry: waiting owner -> tuple of owners
        #: it currently waits on. Written only by the waiting thread (and
        #: cleared by granters); whole-value replacement keeps it coherent
        #: under the GIL without a lock of its own.
        self._wait_edges: dict[Hashable, tuple[Hashable, ...]] = {}  # guarded_by: GIL

    # -- public API -----------------------------------------------------------

    def _stripe_of(self, key: Any) -> _Stripe:
        return self._stripes[hash(key) % len(self._stripes)]

    @property
    def num_stripes(self) -> int:
        return len(self._stripes)

    # aggregated monitoring counters (kept as the pre-striping attribute
    # names so the observability layer reads them unchanged)
    @property
    def waits(self) -> int:
        return sum(s.waits for s in self._stripes)

    @property
    def deadlocks(self) -> int:
        return sum(s.deadlocks for s in self._stripes)

    @property
    def timeouts(self) -> int:
        return sum(s.timeouts for s in self._stripes)

    @property
    def wait_seconds(self) -> float:
        return sum(s.wait_seconds for s in self._stripes)

    def stripe_wait_counts(self) -> list[int]:
        """Per-stripe wait counters (contention skew diagnostics)."""
        return [s.waits for s in self._stripes]

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
        stripe = self._stripe_of(key)
        with stripe.cond:
            if owner in self._aborted:
                raise TransactionAbortedError("transaction was aborted")
            row = stripe.rows.get(key)
            if row is None:
                row = stripe.rows[key] = _RowLock()
            if self._grantable(row, owner, mode):
                # uncontended fast path: grant without touching the queue
                self._grant(stripe, row, key, owner, mode)
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
            stripe.waits += 1
            deadline = time.monotonic() + (timeout if timeout is not None
                                           else self._timeout)
            table = key[0] if isinstance(key, tuple) and key else "?"
            shard = self._shard_of(key) if self._shard_of is not None else None
            started = time.monotonic()
            try:
                with trace_span("lock_wait", mode=mode.value, table=table,
                                shard="-" if shard is None else shard):
                    self._wait(stripe, row, key, request, owner, deadline)
            finally:
                self._wait_edges.pop(owner, None)
                waited = time.monotonic() - started
                stripe.wait_seconds += waited
                registry = self._registry
                if registry is not None:
                    registry.inc("ndb_lock_wait_seconds_total", waited)
                    registry.inc("ndb_lock_waits_total")
                    registry.inc("ndb_lock_stripe_waits_total",
                                 stripe=stripe.index)
                    if shard is not None:
                        registry.observe("ndb_shard_op_seconds", waited,
                                         shard=shard, kind="lock_wait")
                if not request.granted:
                    try:
                        row.queue.remove(request)
                    except ValueError:
                        pass
                    self._dispatch(stripe, row, key)
            if witness is not None:
                witness.row_granted(self, owner, key, mode.value)

    def acquire_many(self, owner: Hashable, keys: Iterable[Any], mode: LockMode,
                     timeout: Optional[float] = None,
                     modes: Optional[Iterable[LockMode]] = None) -> None:
        """Acquire ``mode`` on every key, one stripe-mutex visit per group.

        ``keys`` must already be in a deadlock-free total order (sorted
        PKs / root-down path order, §5) — grants happen in exactly that
        order, so the witness sees the same edge sequence as a per-key
        loop. ``modes`` optionally gives a per-key mode (parallel to
        ``keys``); READ_COMMITTED entries are skipped.

        The batched phase takes every involved stripe mutex in ascending
        stripe-index order and self-grants whatever is uncontended —
        never blocking while holding more than one stripe, which keeps
        the nested acquisition deadlock-free (this method is the only
        nested-stripe holder, and all holders ascend). The first
        conflicting key ends the batched phase; it and everything after
        it fall back to ordered blocking :meth:`acquire` calls, so FIFO
        queueing and deadlock detection behave exactly as before.
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
        entered: list[_Stripe] = []
        try:
            for idx in sorted({self._stripe_of(key).index for key, _ in wanted}):
                stripe = self._stripes[idx]
                stripe.cond.acquire()
                entered.append(stripe)
            if owner in self._aborted:
                raise TransactionAbortedError("transaction was aborted")
            for key, kmode in wanted:
                stripe = self._stripe_of(key)
                row = stripe.rows.get(key)
                if row is None:
                    row = _RowLock()
                if not self._grantable(row, owner, kmode):
                    break
                stripe.rows.setdefault(key, row)
                if witness is not None:
                    witness.row_requested(self, owner, key, kmode.value)
                self._grant(stripe, row, key, owner, kmode)
                if witness is not None:
                    witness.row_granted(self, owner, key, kmode.value)
                granted += 1
        finally:
            for stripe in entered:
                stripe.cond.release()
        # remainder: contended keys block one at a time, in caller order
        for key, kmode in wanted[granted:]:
            # hfs: allow(HFS102, reason=keys arrive pre-sorted in the global total order per the docstring contract; re-sorting here would break root-down path order)
            self.acquire(owner, key, kmode, timeout=timeout)

    def release_all(self, owner: Hashable) -> None:
        """Release every lock held by ``owner`` and wake eligible waiters."""
        with self._owner_mutex:
            stripe_ids = self._owner_stripes.pop(owner, set())
        for idx in sorted(stripe_ids):
            stripe = self._stripes[idx]
            with stripe.cond:
                keys = stripe.held.pop(owner, set())
                for key in keys:
                    row = stripe.rows.get(key)
                    if row is None:
                        continue
                    row.owners.pop(owner, None)
                    self._dispatch(stripe, row, key)
                if keys:
                    stripe.cond.notify_all()
        with self._abort_mutex:
            self._aborted.discard(owner)
        witness = LockManager._witness
        if witness is not None:
            witness.owner_released(self, owner)

    def abort_waiters(self, owners: Iterable[Hashable]) -> None:
        """Mark owners aborted so their pending acquires fail immediately."""
        with self._abort_mutex:
            self._aborted.update(owners)
        for stripe in self._stripes:
            with stripe.cond:
                stripe.cond.notify_all()

    def is_aborted(self, owner: Hashable) -> bool:
        """Whether ``owner`` carries a pending failover-abort mark."""
        with self._abort_mutex:
            return owner in self._aborted

    def holders(self, key: Any) -> dict[Hashable, LockMode]:
        stripe = self._stripe_of(key)
        with stripe.cond:
            row = stripe.rows.get(key)
            return dict(row.owners) if row else {}

    def held_keys(self, owner: Hashable) -> set[Any]:
        keys: set[Any] = set()
        for stripe in self._stripes:
            with stripe.cond:
                keys.update(stripe.held.get(owner, ()))
        return keys

    def lock_table_size(self) -> int:
        total = 0
        for stripe in self._stripes:
            with stripe.cond:
                total += len(stripe.rows)
        return total

    # -- internals -------------------------------------------------------------

    def _grantable(self, row: _RowLock, owner: Hashable, mode: LockMode) -> bool:
        held = row.owners.get(owner)
        if held is LockMode.EXCLUSIVE:
            return True  # reentrant; X covers S
        if held is LockMode.SHARED and mode is LockMode.SHARED:
            return True
        if held is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
            return len(row.owners) == 1  # sole-owner upgrade
        # new acquisition: respect FIFO queue
        if row.queue:
            return False
        if not row.owners:
            return True
        if mode is LockMode.SHARED:
            return all(m is LockMode.SHARED for m in row.owners.values())
        return False

    def _grant(self, stripe: _Stripe, row: _RowLock, key: Any,
               owner: Hashable, mode: LockMode) -> None:
        held = row.owners.get(owner)
        if held is LockMode.EXCLUSIVE:
            return
        row.owners[owner] = mode if held is None else (
            LockMode.EXCLUSIVE if LockMode.EXCLUSIVE in (held, mode) else LockMode.SHARED
        )
        owned = stripe.held.get(owner)
        if owned is None:
            owned = stripe.held[owner] = set()
            with self._owner_mutex:
                self._owner_stripes.setdefault(owner, set()).add(stripe.index)
        owned.add(key)

    def _dispatch(self, stripe: _Stripe, row: _RowLock, key: Any) -> None:
        """Grant queued requests from the front while compatible."""
        granted_any = False
        while row.queue:
            head = row.queue[0]
            owner, mode = head.owner, head.mode
            if owner in self._aborted:
                row.queue.popleft()
                granted_any = True  # waiter must wake to observe abort
                continue
            held = row.owners.get(owner)
            others = {o: m for o, m in row.owners.items() if o != owner}
            if mode is LockMode.SHARED:
                compatible = all(m is LockMode.SHARED for m in others.values())
            else:
                compatible = not others
            if held is LockMode.EXCLUSIVE:
                compatible = True
            if not compatible:
                break
            row.queue.popleft()
            self._grant(stripe, row, key, owner, mode)
            head.granted = True
            # retire the waiter's published wait-for edges right at grant
            # time so stale edges cannot fabricate a cycle elsewhere
            self._wait_edges.pop(owner, None)
            granted_any = True
        if row.idle():
            stripe.rows.pop(key, None)
        if granted_any:
            stripe.cond.notify_all()

    def _blockers(self, row: _RowLock, request: _Request) -> set[Hashable]:
        """Owners/earlier-waiters this request is waiting on (wait-for edges)."""
        blockers = {o for o in row.owners if o != request.owner}
        for queued in row.queue:
            if queued is request:
                break
            if queued.owner != request.owner:
                blockers.add(queued.owner)
        return blockers

    def _detect_deadlock(self, start: Hashable) -> bool:
        """DFS over the published wait-for edges for a cycle through ``start``."""
        graph = dict(self._wait_edges)  # GIL-atomic snapshot
        stack = [start]
        seen: set[Hashable] = set()
        while stack:
            node = stack.pop()
            for nxt in graph.get(node, ()):
                if nxt == start:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def _wait(self, stripe: _Stripe, row: _RowLock, key: Any, request: _Request,
              owner: Hashable, deadline: float) -> None:
        while True:
            if request.granted:
                return
            if owner in self._aborted:
                raise TransactionAbortedError("transaction was aborted while waiting")
            if self._deadlock_detection:
                self._wait_edges[owner] = tuple(self._blockers(row, request))
                if self._detect_deadlock(owner) and not request.granted:
                    # edges can be stale for a beat after a grant elsewhere;
                    # confirm the cycle still exists before aborting
                    if self._detect_deadlock(owner):
                        stripe.deadlocks += 1
                        raise DeadlockError(
                            f"deadlock detected while locking {key!r}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                stripe.timeouts += 1
                raise LockTimeoutError(f"lock wait timeout on {key!r}")
            park()
            stripe.cond.wait(timeout=min(remaining, 0.05))
