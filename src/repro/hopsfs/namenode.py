"""The stateless HopsFS namenode.

A namenode owns no authoritative state: everything lives in the database.
What it *does* own is soft state that can be rebuilt at any time — the
inode hint cache, leased id ranges, the leader-election observations and
the in-memory datanode liveness map — which is why any number of
namenodes can serve any request and why killing one loses nothing
(paper §3, §7.6.1).
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import (
    ClusterDownError,
    CommitAmbiguousError,
    DeadlockError,
    DegradedModeError,
    DuplicateKeyError,
    LockTimeoutError,
    NameNodeUnavailableError,
    NodeFailureError,
    TransactionAbortedError,
)
from repro.dal.driver import DALDriver, DALTransaction
from repro.faults import fault_point
from repro.hopsfs.config import HopsFSConfig
from repro.hopsfs.hintcache import InodeHintCache
from repro.hopsfs.leader import LeaderElection
from repro.hopsfs.ops_inode import InodeOpsMixin
from repro.hopsfs.ops_subtree import SubtreeOpsMixin
from repro.hopsfs.tx import IdAllocator, PathResolver, StaleSubtreeLockError
from repro.hopsfs import schema as fs_schema
from repro.metrics import tracing
from repro.metrics.flightrecorder import FlightRecorder
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import Trace, Tracer
from repro.ndb.locks import LockMode
from repro.ndb.stats import AccessKind, AccessStats


#: operations served even in read-only degraded mode (the paper's
#: availability floor: stats and reads straight from the database)
READ_OPS = frozenset({
    "stat", "read", "ls", "get_xattrs", "content_summary", "fsck",
    "block_report_lookup", "block_report_dbview",
})

#: failure classes that count toward the degraded-mode trip: the
#: database could not commit (or we cannot know whether it did)
COMMIT_FAILURE_ERRORS = (TransactionAbortedError, DeadlockError,
                         LockTimeoutError, ClusterDownError,
                         NodeFailureError, CommitAmbiguousError)


class NameNode(InodeOpsMixin, SubtreeOpsMixin):
    """One HopsFS namenode process."""

    def __init__(self, driver: DALDriver, config: HopsFSConfig,
                 nn_id: int, location: str = "") -> None:
        self.driver = driver
        self.config = config
        self.clock = config.clock
        self.nn_id = nn_id
        self.location = location or f"namenode-{nn_id}"
        self.alive = True  # guarded_by: GIL
        self.hint_cache = InodeHintCache()
        self.leader_election = LeaderElection(
            driver.session(), nn_id, self.location,
            missed_heartbeats=config.nn_missed_heartbeats)
        self.resolver = PathResolver(
            self.hint_cache, config.random_partition_depth,
            is_namenode_dead=self._is_namenode_dead)
        self.id_alloc = IdAllocator(driver.session(), "inodes",
                                    batch=config.id_batch_size)
        self.block_alloc = IdAllocator(driver.session(), "blocks",
                                       batch=config.id_batch_size)
        self.gen_stamp_alloc = IdAllocator(driver.session(), "genstamps",
                                           batch=config.id_batch_size)
        self._rng = random.Random(nn_id)
        self.stats = AccessStats(keep_events=False)
        self.op_count: dict[str, int] = {}  # guarded_by: _stats_mutex
        self._stats_mutex = threading.Lock()
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder(name=f"nn{nn_id}",
                                     dump_dir=config.flight_dump_dir)
        self.tracer = Tracer(
            registry=self.metrics,
            sample_every=config.trace_sample_every,
            on_finish=self._on_trace_finish)
        # hot-path metric handles, cached so per-operation recording is a
        # couple of lock/inc pairs instead of registry lookups (the
        # registry's get-or-create does label canonicalization each call)
        # guarded_by: GIL -- racing fillers store the registry's own metrics
        self._op_metrics: dict[str, tuple] = {}
        self._db_kind_counters = {
            kind: self.metrics.counter("db_access_total", kind=kind.value)
            for kind in AccessKind}
        self._db_counters = (
            self.metrics.counter("db_round_trips_total"),
            self.metrics.counter("db_rows_read_total"),
            self.metrics.counter("db_rows_written_total"),
            self.metrics.counter("db_rows_locked_total"),
            self.metrics.counter("db_remote_partition_hops_total"),
        )
        #: dn_id -> last heartbeat timestamp (soft state from heartbeats)
        self._dn_heartbeats: dict[int, float] = {}  # guarded_by: GIL
        #: datanodes being drained: no new replicas are placed on them
        self.decommissioning: set[int] = set()
        #: test hooks: tag -> callable, invoked at subtree-protocol stages
        self.failpoints: dict[str, Callable[[], None]] = {}
        # graceful degradation state (docs/robustness.md): a sliding
        # window of recent op outcomes; tripping flips the namenode
        # read-only until a write probe succeeds
        self._degraded = False  # guarded_by: _degraded_lock
        self._degraded_lock = threading.Lock()
        self._recent_outcomes: "deque[bool]" = deque(  # guarded_by: _degraded_lock
            maxlen=config.degraded_window)
        self._last_probe = float("-inf")  # guarded_by: _degraded_lock

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        self.leader_election.register()
        self.leader_election.heartbeat()

    def stop(self) -> None:
        """Graceful shutdown."""
        if self.alive:
            self.leader_election.deregister()
        self.alive = False

    def kill(self) -> None:
        """Simulated crash: no deregistration, no cleanup."""
        self.alive = False

    def heartbeat(self) -> None:
        """One leader-election round (driven by the cluster harness)."""
        if self.alive:
            self.leader_election.heartbeat()

    def is_leader(self) -> bool:
        return self.alive and self.leader_election.is_leader()

    # -- operation wrapper -------------------------------------------------------------

    def _fs_op(self, op_name: str, fn: Callable[[DALTransaction], Any],
               hint: Optional[tuple[str, dict]] = None,
               retry_duplicates: bool = False) -> Any:
        """Run one file system operation with the standard retry policy.

        * stale subtree locks are lazily cleared and the op retried (§6.2);
        * with ``retry_duplicates``, duplicate-key races (two namenodes
          creating the same path component) retry so idempotent operations
          like ``mkdirs`` converge;
        * lock conflicts retry inside :meth:`DALSession.run` already.

        Every call records per-operation latency/retry/error metrics into
        :attr:`metrics`; sampled calls additionally produce a full phase
        trace (see :mod:`repro.metrics.tracing`).
        """
        if not self.alive:
            raise NameNodeUnavailableError(f"namenode {self.nn_id} is down")
        # chaos hook: the site call-action plans use to kill datanodes /
        # namenodes deterministically mid-workload, and error-action
        # plans use to simulate a namenode dying as the request arrives
        fault_point("hopsfs.op", op=op_name, nn=self.nn_id)
        self._degraded_gate(op_name)
        record = self.flight.begin(op_name)
        started = time.perf_counter()
        trace = None
        try:
            with self.tracer.trace(op_name) as trace:
                result = self._fs_op_attempts(op_name, fn, hint,
                                              retry_duplicates)
        except Exception as exc:
            self._account(op_name, record, started, trace, exc)
            raise
        self._account(op_name, record, started, trace, None)
        return result

    def _account(self, op_name: str, record: Any, started: float,
                 trace: Optional[Trace], error: Optional[Exception]) -> None:
        """The one epilogue of :meth:`_fs_op`: latency, outcome counter,
        flight record, degraded-mode window."""
        elapsed = time.perf_counter() - started
        seconds, total, _round_trips = self._hot_op_metrics(op_name)
        seconds.observe(elapsed)
        if error is None:
            total.inc()
        else:
            self.metrics.inc("fs_op_errors_total", op=op_name,
                             error=type(error).__name__)
        self.flight.end(record, error=error,
                        trace_id=trace.trace_id if trace else None)
        self._record_outcome(isinstance(error, COMMIT_FAILURE_ERRORS))

    def _on_trace_finish(self, trace: Trace) -> None:
        """Keep failed, retried and slow traces in the flight recorder."""
        if (trace.error is not None
                or trace.duration >= self.tracer.slow_threshold
                or trace.execute_attempts > 1
                or trace.retry_events):
            self.flight.keep_trace(trace)

    def _hot_op_metrics(self, op_name: str) -> tuple:
        """Cached (latency histogram, success counter, round-trip
        histogram) for one op name."""
        metrics = self._op_metrics.get(op_name)
        if metrics is None:
            metrics = self._op_metrics[op_name] = (
                self.metrics.histogram("fs_op_seconds", op=op_name),
                self.metrics.counter("fs_op_total", op=op_name),
                self.metrics.histogram("db_op_round_trips", op=op_name))
        return metrics

    def _fs_op_attempts(self, op_name: str, fn: Callable[[DALTransaction], Any],
                        hint: Optional[tuple[str, dict]],
                        retry_duplicates: bool) -> Any:
        last_exc: Exception = TransactionAbortedError("no attempts")
        for attempt in range(8):
            if not self.alive:
                raise NameNodeUnavailableError(
                    f"namenode {self.nn_id} is down")
            if attempt:
                self.metrics.inc("fs_op_retries_total", op=op_name)
            session = self.driver.session()
            try:
                result = session.run(fn, hint=hint)
                self._merge_stats(op_name, session)
                return result
            except StaleSubtreeLockError as exc:
                self._merge_stats(op_name, session)
                tracing.add_event("stale_subtree_lock", owner=exc.owner)
                self.metrics.inc("fs_op_stale_subtree_locks_total",
                                 op=op_name)
                self._clear_stale_subtree_lock(exc)
                last_exc = exc
            except DuplicateKeyError as exc:
                self._merge_stats(op_name, session)
                if not retry_duplicates:
                    raise
                tracing.add_event("duplicate_key_retry")
                last_exc = exc
            except Exception:
                self._merge_stats(op_name, session)
                raise
        raise last_exc

    def op_counts(self) -> dict[str, int]:
        """A locked snapshot of the per-op invocation counters."""
        with self._stats_mutex:
            return dict(self.op_count)

    def _merge_stats(self, op_name: str, session) -> None:
        stats = session.stats
        with self._stats_mutex:
            self.stats.merge(stats)
            self.op_count[op_name] = self.op_count.get(op_name, 0) + 1
        # bridge the DAL access statistics into the metrics registry
        # (through cached counter handles — this runs once per operation)
        for kind, n in stats.by_kind.items():
            self._db_kind_counters[kind].inc(n)
        round_trips, read, written, locked, hops = self._db_counters
        if stats.round_trips:
            round_trips.inc(stats.round_trips)
            # per-op round-trip distribution: the budget view the cost
            # program gates on (docs/performance.md)
            self._hot_op_metrics(op_name)[2].observe(stats.round_trips)
        if stats.rows_read:
            read.inc(stats.rows_read)
        if stats.rows_written:
            written.inc(stats.rows_written)
        if stats.rows_locked:
            locked.inc(stats.rows_locked)
        if stats.remote_partition_hops:
            hops.inc(stats.remote_partition_hops)
        tx_retries = getattr(session, "retries_used", 0)
        if tx_retries:
            self.metrics.inc("fs_op_tx_retries_total", tx_retries,
                             op=op_name)

    def _clear_stale_subtree_lock(self, exc: StaleSubtreeLockError) -> None:
        """Lazy reclamation of a dead namenode's subtree lock (§6.2)."""
        session = self.driver.session()

        def fn(tx: DALTransaction) -> None:
            row = tx.read("inodes", exc.inode_pk, lock=LockMode.EXCLUSIVE)
            if row is None:
                return
            if row["subtree_lock_owner"] != exc.owner:
                return  # someone else already reclaimed or re-locked it
            if not self._is_namenode_dead(exc.owner):
                return  # the owner came back into view; leave it alone
            tx.update("inodes", exc.inode_pk,
                      {"subtree_lock_owner": fs_schema.NO_LOCK,
                       "subtree_op": None})
            tx.delete("active_subtree_ops", (row["id"],), must_exist=False)

        session.run(fn, hint=("inodes", {"part_key": exc.inode_pk[0]}))
        self._merge_stats("reclaim_subtree_lock", session)

    # -- graceful degradation (docs/robustness.md) --------------------------------------

    @property
    def degraded(self) -> bool:
        """True while this namenode is in read-only degraded mode."""
        with self._degraded_lock:
            return self._degraded

    def _degraded_gate(self, op_name: str) -> None:
        """Reject mutations while degraded; reads always pass.

        The gate is lazy-probing: once per probe interval a write probe
        runs inline before the rejection, so a recovered database lifts
        degraded mode without needing a background thread.
        """
        if not self.config.degraded_mode_enabled:
            return
        with self._degraded_lock:
            if not self._degraded or op_name in READ_OPS:
                return
            now = self.clock.now()
            probe_due = (now - self._last_probe
                         >= self.config.degraded_probe_interval)
            if probe_due:
                self._last_probe = now
        if probe_due and self._probe_write():
            return
        self.metrics.inc("fs_op_rejected_degraded_total", op=op_name)
        raise DegradedModeError(
            f"namenode {self.nn_id} is in read-only degraded mode; "
            f"rejecting {op_name!r} (reads are still served)")

    def _probe_write(self) -> bool:
        """One write probe: EXCLUSIVE-lock our election row and commit.

        The paper defines an alive namenode as one that can write to
        the database in bounded time — a successful probe commit is
        exactly that evidence, so it clears degraded mode.
        """
        session = self.driver.session()

        def fn(tx: DALTransaction) -> None:
            row = tx.read("le_descriptors", (self.nn_id,),
                          lock=LockMode.EXCLUSIVE)
            if row is not None:
                tx.update("le_descriptors", (self.nn_id,),
                          {"counter": row["counter"]})

        try:
            session.run(fn, retries=1)
        except Exception:
            return False
        with self._degraded_lock:
            self._degraded = False
            self._recent_outcomes.clear()
        self.metrics.inc("degraded_mode_exits_total")
        self.metrics.set_gauge("degraded_mode", 0)
        return True

    def _record_outcome(self, commit_failure: bool) -> None:
        """Feed the sliding failure window; trip degraded mode on storms."""
        config = self.config
        if not config.degraded_mode_enabled:
            return
        with self._degraded_lock:
            self._recent_outcomes.append(commit_failure)
            if self._degraded:
                return
            if len(self._recent_outcomes) < config.degraded_min_samples:
                return
            rate = (sum(self._recent_outcomes)
                    / len(self._recent_outcomes))
            if rate < config.degraded_failure_threshold:
                return
            self._degraded = True
            # hold the mode for at least one probe interval before the
            # first probe — tripping must have an observable effect
            self._last_probe = self.clock.now()
        self.metrics.inc("degraded_mode_entries_total")
        self.metrics.set_gauge("degraded_mode", 1)

    # -- observability ------------------------------------------------------------------

    def metrics_registry(self) -> "MetricsRegistry":
        """The namenode's registry with point-in-time gauges refreshed.

        Counters and histograms accumulate live inside :meth:`_fs_op`;
        gauges mirroring other subsystems (hint cache, path resolver)
        are only brought up to date here, when someone looks.
        """
        cache = self.hint_cache.snapshot()
        metrics = self.metrics
        for key in ("size", "hits", "misses", "invalidations", "evictions"):
            metrics.set_gauge(f"hint_cache_{key}", cache[key])
        metrics.set_gauge("hint_cache_hit_rate", cache["hit_rate"])
        metrics.set_gauge("resolver_batched_resolutions",
                          self.resolver.batched_resolutions)
        metrics.set_gauge("resolver_recursive_resolutions",
                          self.resolver.recursive_resolutions)
        metrics.set_gauge("degraded_mode", int(self.degraded))
        return metrics

    def metrics_snapshot(self) -> dict:
        """JSON-able snapshot of this namenode's metrics."""
        from repro.metrics import export

        return export.snapshot(self.metrics_registry(),
                               meta={"namenode": self.nn_id,
                                     "location": self.location})

    # -- membership helpers -------------------------------------------------------------

    def _is_namenode_dead(self, nn_id: int) -> bool:
        return self.leader_election.is_dead(nn_id)

    # -- datanode soft state -------------------------------------------------------------

    def datanode_heartbeat(self, dn_id: int) -> None:
        self._dn_heartbeats[dn_id] = self.clock.now()

    def alive_datanode_ids(self, include_decommissioning: bool = True
                           ) -> list[int]:
        deadline = self.clock.now() - self.config.dn_heartbeat_timeout
        alive = sorted(dn_id for dn_id, t in self._dn_heartbeats.items()
                       if t >= deadline)
        if include_decommissioning:
            return alive
        return [dn for dn in alive if dn not in self.decommissioning]

    def forget_datanode(self, dn_id: int) -> None:
        self._dn_heartbeats.pop(dn_id, None)

    # -- test hooks ---------------------------------------------------------------------

    def _subtree_failpoint(self, tag: str) -> None:
        # chaos bridge: every subtree-protocol stage doubles as a fault
        # injection site, e.g. "hopsfs.subtree.after_quiesce"
        fault_point(f"hopsfs.subtree.{tag}", nn=self.nn_id)
        hook = self.failpoints.get(tag)
        if hook is not None:
            hook()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        leader = " leader" if self.alive and self.is_leader() else ""
        return f"NameNode(id={self.nn_id}, {state}{leader})"
