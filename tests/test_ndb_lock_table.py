"""The lock table against a reference model, step by step.

Seeded single-thread sequences over several owners drive S/X grants
(batched and single), re-grants, sole-owner upgrades, conflicts refused
by a short timeout, failover abort marks (one of them on a queued
owner) and ``release_all``. After every step ``holders``, ``held_keys``,
``lock_table_size`` and ``is_aborted`` must equal a small model that
knows nothing of entries, queues or key lists.
"""

import random
import sys
import threading
import time

import pytest

from repro.errors import LockTimeoutError, TransactionAbortedError
from repro.faults import FaultPlan, installed
from repro.ndb.locks import LockManager, LockMode

S, X, RC = LockMode.SHARED, LockMode.EXCLUSIVE, LockMode.READ_COMMITTED
KEYS = [("inodes", (i,)) for i in range(5)]
OWNERS = ["a", "b", "c", "d"]
REFUSED = 0.005  # the timeout a conflicting step waits out


class Model:
    """Who holds what: the lock table's meaning without its structure."""

    def __init__(self):
        self.rows = {}         # key -> {owner: mode}
        self.aborted = set()

    def grantable(self, owner, key, mode):
        holders = self.rows.get(key, {})
        held = holders.get(owner)
        if held is X or held is mode:
            return True
        if held is S:
            return len(holders) == 1
        if mode is X:
            return not holders
        return X not in holders.values()

    def grant(self, owner, key, mode):
        holders = self.rows.setdefault(key, {})
        if holders.get(owner) is not X:
            holders[owner] = mode

    def acquire_many(self, owner, pairs):
        """The prefix granted before the first conflict; whether the
        whole batch was granted."""
        for key, mode in pairs:
            if mode is RC:
                continue
            if not self.grantable(owner, key, mode):
                return False
            self.grant(owner, key, mode)
        return True

    def release_all(self, owner):
        for holders in self.rows.values():
            holders.pop(owner, None)
        self.rows = {k: h for k, h in self.rows.items() if h}
        self.aborted.discard(owner)

    def held_keys(self, owner):
        return {k for k, h in self.rows.items() if owner in h}


def _until(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _check(mgr, model, step):
    for key in KEYS:
        assert mgr.holders(key) == model.rows.get(key, {}), step
    for owner in OWNERS:
        assert mgr.held_keys(owner) == model.held_keys(owner), step
        assert mgr.is_aborted(owner) == (owner in model.aborted), step
    assert mgr.lock_table_size() == len(model.rows), step


def _abort_queued(mgr, model, owner, rng):
    """Queue ``owner`` behind a row another owner holds X, mark it
    aborted, and release it: its waiter raises, nothing else moves."""
    others = [o for o in OWNERS if o != owner and o not in model.aborted]
    key = next((k for k in KEYS for o in others
                if model.rows.get(k, {}).get(o) is X
                and owner not in model.rows[k]), None)
    if key is None or owner in model.aborted:
        return "abort-queued skipped"
    mode, outcome = rng.choice([S, X]), []

    def wait():
        try:
            mgr.acquire(owner, key, mode, timeout=5.0)
            outcome.append("granted")
        except TransactionAbortedError:
            outcome.append("aborted")

    waits = mgr.waits
    waiter = threading.Thread(target=wait)
    waiter.start()
    _until(lambda: mgr.waits == waits + 1)
    mgr.abort_waiters([owner])
    waiter.join(timeout=5)
    assert outcome == ["aborted"]
    model.aborted.add(owner)
    return f"abort-queued {owner} on {key}"


def _step(mgr, model, rng):
    owner = rng.choice(OWNERS)
    roll = rng.random()
    if roll < 0.06:
        model.release_all(owner)
        mgr.release_all(owner)
        return f"release_all {owner}"
    if roll < 0.09:
        model.aborted.add(owner)
        mgr.abort_waiters([owner])
        return f"abort_waiters {owner}"
    if roll < 0.12:
        return _abort_queued(mgr, model, owner, rng)
    if roll < 0.22:
        # a re-grant of a row the owner holds, at its mode or weaker
        held = [(k, h[owner]) for k, h in model.rows.items() if owner in h]
        if held:
            key, mode = rng.choice(held)
            mode = rng.choice([S, mode])
        else:
            key, mode = rng.choice(KEYS), rng.choice([S, X])
        pairs = [(key, mode)]
        batched = rng.random() < 0.5
    elif roll < 0.55:
        pairs = [(rng.choice(KEYS), rng.choice([S, X]))]
        batched = False
    else:
        keys = sorted(rng.sample(KEYS, rng.randint(1, len(KEYS))))
        if rng.random() < 0.5:
            mode = rng.choice([S, X])
            pairs = [(key, mode) for key in keys]
        else:
            pairs = [(key, rng.choice([S, X, RC])) for key in keys]
        batched = True
    if owner in model.aborted and any(m is not RC for _, m in pairs):
        expected = TransactionAbortedError
    else:
        expected = None if model.acquire_many(owner, pairs) else LockTimeoutError
    try:
        if batched:
            mgr.acquire_many(owner, [k for k, _ in pairs], pairs[0][1],
                             timeout=REFUSED, modes=[m for _, m in pairs])
        else:
            mgr.acquire(owner, pairs[0][0], pairs[0][1], timeout=REFUSED)
        raised = None
    except (LockTimeoutError, TransactionAbortedError) as exc:
        raised = type(exc)
    label = f"{'acquire_many' if batched else 'acquire'} {owner} {pairs}"
    assert raised is expected, label
    return label


@pytest.mark.lock_witness_exempt  # upgrades and key orders are random
@pytest.mark.parametrize("seed", range(4))
def test_seeded_sequence_matches_the_model(seed):
    rng = random.Random(seed)
    mgr, model = LockManager(timeout=REFUSED), Model()
    steps = []
    for _ in range(250):
        steps.append(_step(mgr, model, rng))
        _check(mgr, model, steps[-3:])
    for owner in OWNERS:
        mgr.release_all(owner)
        model.release_all(owner)
    _check(mgr, model, "drained")
    assert mgr.lock_table_size() == 0
    assert mgr.deadlocks == 0


def test_three_waiters_on_one_row_are_served_in_fifo_order():
    mgr = LockManager(timeout=5.0)
    mgr.acquire("holder", "k", X)
    served = []

    def wait(owner):
        mgr.acquire(owner, "k", X)
        served.append(owner)
        mgr.release_all(owner)

    threads = []
    for owner in ["first", "second", "third"]:
        waits = mgr.waits
        threads.append(threading.Thread(target=wait, args=(owner,)))
        threads[-1].start()
        _until(lambda waits=waits: mgr.waits == waits + 1)
    mgr.release_all("holder")
    for t in threads:
        t.join(timeout=5)
    assert served == ["first", "second", "third"]
    assert mgr.lock_table_size() == 0


def test_threads_never_share_a_row_they_may_not_share():
    """Four threads (more than the cores of a small host) take sorted
    batches of S or X locks with a short switch interval. No row is ever
    held X by two of them, or X beside S, and the table drains."""
    mgr = LockManager(timeout=10.0)
    inside = {key: {S: 0, X: 0} for key in KEYS}
    guard = threading.Lock()
    broken = []

    def work(seed):
        rng, owner = random.Random(seed), f"w{seed}"
        try:
            for _ in range(300):
                batch = sorted(rng.sample(KEYS, rng.randint(1, 3)))
                mode = rng.choice([S, X])
                mgr.acquire_many(owner, batch, mode)
                with guard:
                    for key in batch:
                        inside[key][mode] += 1
                        if inside[key][X] > 1 or (inside[key][X] and inside[key][S]):
                            broken.append((owner, key, dict(inside[key])))
                with guard:
                    for key in batch:
                        inside[key][mode] -= 1
                mgr.release_all(owner)
        except Exception as exc:  # surfaced by the assertion below
            broken.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert broken == []
    assert mgr.lock_table_size() == 0


def test_the_fault_site_fires_once_per_call_regrants_included():
    """A fault plan replays the same fired sequence only if the site
    fires once per acquire/acquire_many call, whatever the call grants."""
    plan = FaultPlan(seed=1)
    plan.add("ndb.lock.acquire", action="delay", delay=0.0, max_fires=None)
    mgr = LockManager(timeout=0.5)
    with installed(plan) as injector:
        mgr.acquire("a", KEYS[0], X)                     # new row
        mgr.acquire("a", KEYS[0], X)                     # re-grant
        mgr.acquire("a", KEYS[0], S)                     # X covers S
        mgr.acquire("a", KEYS[1], RC)                    # no lock, no site
        mgr.acquire_many("a", KEYS[:3], X)               # two new, one held
        mgr.acquire_many("a", KEYS[:3], X)               # all re-grants
        mgr.acquire_many("a", KEYS[3:], S, modes=[RC, RC])  # nothing wanted
        # a conflict: the batch, then its remainder's one acquire call
        with pytest.raises(LockTimeoutError):
            mgr.acquire_many("b", KEYS[:1], S, timeout=0.01)
        mgr.acquire_many("b", KEYS[3:], S)
    contexts = [f.ctx for f in injector.fired]
    assert contexts == [{"mode": "x"}, {"mode": "x"}, {"mode": "s"},
                        {"mode": "x", "batch": 3}, {"mode": "x", "batch": 3},
                        {"mode": "s", "batch": 1}, {"mode": "s"},
                        {"mode": "s", "batch": 2}]
    mgr.release_all("a")
    mgr.release_all("b")
    assert mgr.lock_table_size() == 0
