"""Client session: a thin, stat-aggregating handle onto the cluster.

One session per client thread. A session hands out transactions (optionally
distribution-aware via a partition-key hint) and accumulates their access
statistics, which is what the HopsFS DAL driver and the performance-model
recorder consume.

:func:`run_in_session` is *the* whole-transaction retry loop: the remote
session (:class:`repro.dal.remote_driver.RemoteSession`) runs the exact
same code, so embedded and process-based deployments retry identically.
The retry set is the standard NDB client pattern — deadlock, lock
timeout, transaction abort (which is also what mid-transaction connection
loss maps to) — and the policy's non-retryable set guarantees
:class:`~repro.errors.CommitAmbiguousError` never re-enters the loop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Mapping, Optional, TypeVar

from repro.errors import DeadlockError, LockTimeoutError, TransactionAbortedError
from repro.metrics.tracing import add_event, attempt_span
from repro.ndb.stats import AccessStats
from repro.ndb.transaction import Transaction, TxState
from repro.util.retry import RetryPolicy

T = TypeVar("T")

#: the standard transaction retry policy: 5 attempts, no sleeping (lock
#: queues already order the retry fairly; backoff here would only add
#: latency under contention), ambiguous commits never retried
TX_RETRY_POLICY = RetryPolicy(
    max_attempts=5, base_delay=0.0,
    retryable=(DeadlockError, LockTimeoutError, TransactionAbortedError))


def run_in_session(session: Any, fn: Callable[[Any], T],
                   hint: Optional[tuple[str, Mapping[str, Any]]] = None,
                   retries: int = 5) -> T:
    """Run ``fn`` in a transaction of ``session``; retry lock conflicts.

    ``session`` provides ``begin(hint)``, ``stats``, ``retries_used`` and
    ``metrics`` — the registry of the engine or driver that owns it, where
    ``ndb_tx_retries_total{reason}`` is counted. Statistics of every
    attempt — including aborted ones, whose work was real — are merged
    into ``session.stats``.
    """
    policy = (TX_RETRY_POLICY if retries == TX_RETRY_POLICY.max_attempts
              else replace(TX_RETRY_POLICY, max_attempts=max(1, retries)))
    last_exc: Exception = TransactionAbortedError("no attempts made")
    for attempt in policy.attempts():
        tx = session.begin(hint)
        try:
            # attempt 0 is implicit (execute = root self time); only
            # retries carry an explicit "execute" span
            with attempt_span(attempt):
                result = fn(tx)
            if tx.state is TxState.ACTIVE:
                tx.commit()  # emits its own "commit" span
            session.stats.merge(tx.stats)
            return result
        except Exception as exc:
            tx.abort()
            session.stats.merge(tx.stats)
            if not policy.is_retryable(exc):
                raise
            session.retries_used += 1
            add_event("tx_retry", reason=type(exc).__name__)
            session.metrics.inc("ndb_tx_retries_total",
                                reason=type(exc).__name__)
            last_exc = exc
    raise last_exc


class Session:
    def __init__(self, cluster: "repro.ndb.cluster.NDBCluster") -> None:
        self.cluster = cluster
        self.metrics = cluster.metrics
        self.stats = AccessStats()
        self.retries_used = 0

    def begin(self, hint: Optional[tuple[str, Mapping[str, Any]]] = None) -> Transaction:
        return self.cluster.begin(hint)

    def run(self, fn: Callable[[Transaction], T],
            hint: Optional[tuple[str, Mapping[str, Any]]] = None,
            retries: int = 5) -> T:
        """Run ``fn`` in a transaction; retry on lock conflicts.

        Statistics of every attempt — including aborted ones, whose work
        was real — are merged into :attr:`stats`.
        """
        return run_in_session(self, fn, hint=hint, retries=retries)

    def reset_stats(self) -> AccessStats:
        """Return accumulated stats and start a fresh accumulator."""
        stats, self.stats = self.stats, AccessStats()
        return stats
