"""Tests for the row-lock manager: modes, queues, deadlocks, timeouts."""

import statistics
import threading
import time

import pytest

from repro.errors import DeadlockError, LockTimeoutError, TransactionAbortedError
from repro.ndb.locks import LockManager, LockMode


class Owner:
    """Opaque lock-owner token (stand-in for a transaction)."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Owner({self.name})"


@pytest.fixture
def mgr():
    return LockManager(timeout=0.5)


def test_shared_locks_coexist(mgr):
    a, b = Owner("a"), Owner("b")
    mgr.acquire(a, "k", LockMode.SHARED)
    mgr.acquire(b, "k", LockMode.SHARED)
    assert set(mgr.holders("k")) == {a, b}


def test_read_committed_is_lock_free(mgr):
    a = Owner("a")
    mgr.acquire(a, "k", LockMode.READ_COMMITTED)
    assert mgr.holders("k") == {}


def test_exclusive_blocks_shared(mgr):
    a, b = Owner("a"), Owner("b")
    mgr.acquire(a, "k", LockMode.EXCLUSIVE)
    with pytest.raises(LockTimeoutError):
        mgr.acquire(b, "k", LockMode.SHARED, timeout=0.05)


def test_shared_blocks_exclusive(mgr):
    a, b = Owner("a"), Owner("b")
    mgr.acquire(a, "k", LockMode.SHARED)
    with pytest.raises(LockTimeoutError):
        mgr.acquire(b, "k", LockMode.EXCLUSIVE, timeout=0.05)


def test_reentrant_acquisition(mgr):
    a = Owner("a")
    mgr.acquire(a, "k", LockMode.EXCLUSIVE)
    mgr.acquire(a, "k", LockMode.EXCLUSIVE)
    mgr.acquire(a, "k", LockMode.SHARED)  # X covers S
    assert mgr.holders("k") == {a: LockMode.EXCLUSIVE}


@pytest.mark.lock_witness_exempt
def test_sole_owner_upgrade_granted_immediately(mgr):
    a = Owner("a")
    mgr.acquire(a, "k", LockMode.SHARED)
    mgr.acquire(a, "k", LockMode.EXCLUSIVE)
    assert mgr.holders("k") == {a: LockMode.EXCLUSIVE}


def test_release_all_frees_everything(mgr):
    a = Owner("a")
    mgr.acquire(a, "k1", LockMode.EXCLUSIVE)
    mgr.acquire(a, "k2", LockMode.SHARED)
    assert mgr.held_keys(a) == {"k1", "k2"}
    mgr.release_all(a)
    assert mgr.held_keys(a) == set()
    assert mgr.lock_table_size() == 0


def test_waiter_granted_on_release(mgr):
    a, b = Owner("a"), Owner("b")
    mgr.acquire(a, "k", LockMode.EXCLUSIVE)
    got = []

    def waiter():
        mgr.acquire(b, "k", LockMode.EXCLUSIVE, timeout=2.0)
        got.append(True)

    t = threading.Thread(target=waiter)
    t.start()
    time.sleep(0.1)
    assert not got
    mgr.release_all(a)
    t.join(timeout=2.0)
    assert got == [True]
    assert mgr.holders("k") == {b: LockMode.EXCLUSIVE}


def test_fifo_fairness_no_writer_starvation(mgr):
    """A queued X request must not be bypassed by later S requests."""
    a, w, r2 = Owner("a"), Owner("writer"), Owner("late-reader")
    mgr.acquire(a, "k", LockMode.SHARED)
    order = []

    def writer():
        mgr.acquire(w, "k", LockMode.EXCLUSIVE, timeout=5.0)
        order.append("w")
        time.sleep(0.05)
        mgr.release_all(w)

    def late_reader():
        time.sleep(0.1)  # queue behind the writer
        mgr.acquire(r2, "k", LockMode.SHARED, timeout=5.0)
        order.append("r2")
        mgr.release_all(r2)

    tw = threading.Thread(target=writer)
    tr = threading.Thread(target=late_reader)
    tw.start()
    tr.start()
    time.sleep(0.3)
    mgr.release_all(a)
    tw.join(timeout=2)
    tr.join(timeout=2)
    assert order == ["w", "r2"]


@pytest.mark.lock_witness_exempt
def test_deadlock_detected_ab_ba(mgr):
    a, b = Owner("a"), Owner("b")
    mgr.acquire(a, "k1", LockMode.EXCLUSIVE)
    mgr.acquire(b, "k2", LockMode.EXCLUSIVE)
    errors = []
    barrier = threading.Barrier(2)

    def t1():
        barrier.wait()
        try:
            mgr.acquire(a, "k2", LockMode.EXCLUSIVE, timeout=5.0)
        except (DeadlockError, TransactionAbortedError) as exc:
            errors.append(exc)
            mgr.release_all(a)

    def t2():
        barrier.wait()
        try:
            mgr.acquire(b, "k1", LockMode.EXCLUSIVE, timeout=5.0)
        except (DeadlockError, TransactionAbortedError) as exc:
            errors.append(exc)
            mgr.release_all(b)

    th1, th2 = threading.Thread(target=t1), threading.Thread(target=t2)
    th1.start()
    th2.start()
    th1.join(timeout=5)
    th2.join(timeout=5)
    # At least one of the two must break the cycle via deadlock detection.
    assert any(isinstance(e, DeadlockError) for e in errors)
    assert mgr.deadlocks >= 1


@pytest.mark.lock_witness_exempt
def test_upgrade_deadlock_detected(mgr):
    """Two S holders both upgrading to X is the classic upgrade deadlock."""
    a, b = Owner("a"), Owner("b")
    mgr.acquire(a, "k", LockMode.SHARED)
    mgr.acquire(b, "k", LockMode.SHARED)
    errors = []

    def upgrade(owner):
        try:
            mgr.acquire(owner, "k", LockMode.EXCLUSIVE, timeout=5.0)
        except (DeadlockError, LockTimeoutError) as exc:
            errors.append(exc)
            mgr.release_all(owner)

    t1 = threading.Thread(target=upgrade, args=(a,))
    t2 = threading.Thread(target=upgrade, args=(b,))
    t1.start()
    t2.start()
    t1.join(timeout=5)
    t2.join(timeout=5)
    assert errors, "one upgrader must fail"


def test_abort_waiters_wakes_with_aborted_error(mgr):
    a, b = Owner("a"), Owner("b")
    mgr.acquire(a, "k", LockMode.EXCLUSIVE)
    result = []

    def waiter():
        try:
            mgr.acquire(b, "k", LockMode.EXCLUSIVE, timeout=5.0)
        except TransactionAbortedError:
            result.append("aborted")

    t = threading.Thread(target=waiter)
    t.start()
    time.sleep(0.1)
    mgr.abort_waiters([b])
    t.join(timeout=2)
    assert result == ["aborted"]
    mgr.release_all(b)  # clears the aborted flag


def test_timeout_counter(mgr):
    a, b = Owner("a"), Owner("b")
    mgr.acquire(a, "k", LockMode.EXCLUSIVE)
    with pytest.raises(LockTimeoutError):
        mgr.acquire(b, "k", LockMode.SHARED, timeout=0.05)
    assert mgr.timeouts == 1


def test_lock_table_garbage_collected(mgr):
    owners = [Owner(i) for i in range(50)]
    for i, owner in enumerate(owners):
        mgr.acquire(owner, f"k{i}", LockMode.EXCLUSIVE)
    for owner in owners:
        mgr.release_all(owner)
    assert mgr.lock_table_size() == 0


# -- batched acquisition (acquire_many) ----------------------------------------


def test_acquire_many_grants_all_uncontended(mgr):
    a = Owner("a")
    keys = [("t", i) for i in range(8)]
    mgr.acquire_many(a, keys, LockMode.EXCLUSIVE)
    for key in keys:
        assert mgr.holders(key) == {a: LockMode.EXCLUSIVE}


def test_acquire_many_per_key_modes_skip_read_committed(mgr):
    a = Owner("a")
    keys = [("t", 0), ("t", 1), ("t", 2)]
    modes = [LockMode.READ_COMMITTED, LockMode.SHARED, LockMode.EXCLUSIVE]
    mgr.acquire_many(a, keys, LockMode.READ_COMMITTED, modes=modes)
    assert mgr.holders(("t", 0)) == {}
    assert mgr.holders(("t", 1)) == {a: LockMode.SHARED}
    assert mgr.holders(("t", 2)) == {a: LockMode.EXCLUSIVE}


def test_acquire_many_is_reentrant_with_acquire(mgr):
    a = Owner("a")
    mgr.acquire(a, ("t", 1), LockMode.EXCLUSIVE)
    mgr.acquire_many(a, [("t", 0), ("t", 1), ("t", 2)], LockMode.SHARED)
    # X already held covers the S request; others grant S
    assert mgr.holders(("t", 1)) == {a: LockMode.EXCLUSIVE}
    assert mgr.holders(("t", 0)) == {a: LockMode.SHARED}


def test_acquire_many_contended_key_blocks_then_grants(mgr):
    """A conflicting key ends the batched phase; the remainder queues
    through plain acquire() and grants once the holder releases."""
    a, b = Owner("a"), Owner("b")
    keys = [("t", 0), ("t", 1), ("t", 2)]
    mgr.acquire(a, ("t", 1), LockMode.EXCLUSIVE)
    done = threading.Event()

    def contender():
        mgr.acquire_many(b, keys, LockMode.EXCLUSIVE, timeout=2.0)
        done.set()

    t = threading.Thread(target=contender)
    t.start()
    time.sleep(0.05)
    assert not done.is_set()  # parked on the contended middle key
    assert mgr.holders(("t", 0)) == {b: LockMode.EXCLUSIVE}  # batch prefix
    mgr.release_all(a)
    t.join(timeout=2.0)
    assert done.is_set()
    for key in keys:
        assert mgr.holders(key) == {b: LockMode.EXCLUSIVE}


def test_acquire_many_times_out_on_held_key(mgr):
    a, b = Owner("a"), Owner("b")
    mgr.acquire(a, ("t", 5), LockMode.EXCLUSIVE)
    with pytest.raises(LockTimeoutError):
        mgr.acquire_many(b, [("t", 4), ("t", 5)], LockMode.EXCLUSIVE,
                         timeout=0.05)
    # the uncontended prefix stays granted (the transaction's abort
    # path releases it, exactly as with per-key acquire loops)
    assert mgr.holders(("t", 4)) == {b: LockMode.EXCLUSIVE}
    mgr.release_all(b)
    assert mgr.holders(("t", 4)) == {}


def test_acquire_many_aborted_owner_refused(mgr):
    b = Owner("b")
    mgr.abort_waiters([b])
    with pytest.raises(TransactionAbortedError):
        mgr.acquire_many(b, [("t", 0), ("t", 1)], LockMode.EXCLUSIVE)
    assert mgr.holders(("t", 0)) == {}


def test_acquire_many_over_64_keys(mgr):
    a = Owner("a")
    keys = [("t", i) for i in range(64)]
    mgr.acquire_many(a, keys, LockMode.SHARED)
    assert all(mgr.holders(k) == {a: LockMode.SHARED} for k in keys)
    mgr.release_all(a)
    assert all(mgr.holders(k) == {} for k in keys)


# -- failover aborts and hand-offs ---------------------------------------------


def _until(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_release_all_withdraws_an_aborted_waiters_request(mgr):
    """A coordinator failover marks its victims, then aborts them, and
    the abort's release_all runs before a blocked victim has woken to
    see the mark. The victim's queued request must go with it: granted
    later, it would be a lock no one releases."""
    holder, victim = Owner("holder"), Owner("victim")
    mgr.acquire(holder, "k", LockMode.EXCLUSIVE)
    outcome = []

    def waiter():
        try:
            mgr.acquire(victim, "k", LockMode.EXCLUSIVE, timeout=5.0)
            outcome.append("granted")
        except TransactionAbortedError:
            outcome.append("aborted")

    t = threading.Thread(target=waiter)
    t.start()
    _until(lambda: mgr.waits == 1)
    mgr.abort_waiters([victim])
    mgr.release_all(victim)
    mgr.release_all(holder)
    t.join(timeout=2)
    assert outcome == ["aborted"]
    assert mgr.holders("k") == {}
    assert mgr.lock_table_size() == 0


def _hand_off_release(mgr, i):
    """A holder's release grants the queued waiter."""
    holder, waiter = Owner(f"h{i}"), Owner(f"w{i}")
    mgr.acquire(holder, "k", LockMode.EXCLUSIVE)
    return [(waiter, LockMode.EXCLUSIVE)], lambda: mgr.release_all(holder), \
        [holder]


def _hand_off_abort(mgr, i):
    """A failover mark wakes the marked waiter, which raises."""
    holder, waiter = Owner(f"h{i}"), Owner(f"w{i}")
    mgr.acquire(holder, "k", LockMode.EXCLUSIVE)
    return [(waiter, LockMode.EXCLUSIVE)], \
        lambda: mgr.abort_waiters([waiter]), [holder]


def _hand_off_cancel(mgr, i):
    """A victim's release_all wakes its own waiting thread, which raises,
    though withdrawing its request grants no one."""
    holder, waiter = Owner(f"h{i}"), Owner(f"w{i}")
    mgr.acquire(holder, "k", LockMode.EXCLUSIVE)
    return [(waiter, LockMode.EXCLUSIVE)], lambda: mgr.release_all(waiter), \
        [holder]


def _hand_off_withdraw(mgr, i):
    """Withdrawing a queued X request lets the S request behind it join
    the S holder."""
    holder, writer, reader = Owner(f"h{i}"), Owner(f"x{i}"), Owner(f"s{i}")
    mgr.acquire(holder, "k", LockMode.SHARED)
    return [(writer, LockMode.EXCLUSIVE), (reader, LockMode.SHARED)], \
        lambda: mgr.release_all(writer), [holder]


@pytest.mark.parametrize("hand_off", [
    _hand_off_release, _hand_off_abort, _hand_off_cancel, _hand_off_withdraw])
def test_a_hand_off_wakes_its_waiter_at_once(mgr, hand_off):
    """Every path that settles a queued request — a grant on release,
    an abort mark, the owner's own release_all, a withdrawn request
    ahead in the queue — notifies the
    waiter, since no wait polls: over ten hand-offs the median time from
    the settling call to the last waiter's return is under 25 ms, where
    a missed notify would leave it asleep until its 2 s timeout."""
    latencies = []
    for i in range(10):
        queued, settle, holders = hand_off(mgr, i)
        returned = {}

        def wait(owner, mode):
            try:
                mgr.acquire(owner, "k", mode, timeout=2.0)
            except TransactionAbortedError:
                pass
            returned[owner] = time.perf_counter()

        threads = []
        for owner, mode in queued:
            waits = mgr.waits
            threads.append(threading.Thread(target=wait, args=(owner, mode)))
            threads[-1].start()
            _until(lambda waits=waits: mgr.waits == waits + 1)
        started = time.perf_counter()
        settle()
        for t in threads:
            t.join(timeout=3)
        latencies.append(returned[queued[-1][0]] - started)
        for owner in holders + [owner for owner, _mode in queued]:
            mgr.release_all(owner)
        assert mgr.lock_table_size() == 0
    assert statistics.median(latencies) < 0.025
