"""Unit tests for the fault-injection subsystem and the unified retry
policy (docs/robustness.md).

Chaos/integration coverage lives in test_chaos.py; this file pins the
building blocks: plan semantics (matching, skip, probability, budgets),
injector determinism, every action kind, and the RetryPolicy contracts
the rest of the stack now leans on.
"""

import random

import pytest

from repro import faults
from repro.errors import (
    CommitAmbiguousError,
    DeadlockError,
    InjectedFaultError,
    LockTimeoutError,
    TransactionAbortedError,
)
from repro.faults import (
    DropConnection,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    fault_point,
    installed,
)
from repro.metrics.registry import MetricsRegistry
from repro.util.clock import ManualClock
from repro.util.retry import NEVER_RETRY, RetryPolicy

from .conftest import make_hopsfs


# -- plan semantics ---------------------------------------------------------------


def test_spec_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        FaultSpec("x", action="explode")
    with pytest.raises(ValueError):
        FaultSpec("x", probability=1.5)
    with pytest.raises(ValueError):
        FaultSpec("x", max_fires=0)
    with pytest.raises(ValueError):
        FaultSpec("x", skip=-1)
    with pytest.raises(ValueError):
        FaultSpec("x", action="call")  # call without callback name


def test_spec_matching_glob_and_context():
    spec = FaultSpec("rpc.server.*", match={"method": "tx_commit"})
    assert spec.matches("rpc.server.request", {"method": "tx_commit"})
    assert not spec.matches("rpc.server.request", {"method": "tx_begin"})
    assert not spec.matches("rpc.client.send", {"method": "tx_commit"})
    assert not spec.matches("rpc.server.request", {})  # missing ctx key


def test_plan_round_trips_through_json_dict():
    plan = FaultPlan(seed=7, name="demo")
    plan.add("ndb.lock.acquire", action="delay", delay=0.5, skip=2,
             probability=0.25, max_fires=None, match={"mode": "X"})
    plan.add("rpc.server.commit.before", action="drop_conn")
    restored = FaultPlan.from_dict(plan.to_dict())
    assert restored == plan


# -- injector semantics -----------------------------------------------------------


def test_skip_and_max_fires_budget():
    plan = FaultPlan()
    plan.add("site", skip=2, max_fires=2)
    injector = FaultInjector(plan)
    fired = []
    for _ in range(6):
        try:
            injector.visit("site", {})
            fired.append(False)
        except InjectedFaultError:
            fired.append(True)
    # two skipped matches, then exactly two fires, then the budget is spent
    assert fired == [False, False, True, True, False, False]


def test_probability_is_deterministic_per_seed():
    def firings(seed):
        plan = FaultPlan(seed=seed)
        plan.add("site", action="veto", probability=0.5, max_fires=None)
        injector = FaultInjector(plan)
        return [injector.visit("site", {}) for _ in range(32)]

    a, b = firings(123), firings(123)
    assert a == b and any(a) and not all(a)
    assert firings(124) != a  # a different seed draws differently


def test_per_spec_rng_is_independent_of_interleaving():
    def run(other_sites):
        plan = FaultPlan(seed=5)
        plan.add("a", action="veto", probability=0.5, max_fires=None)
        plan.add("b", action="veto", probability=0.5, max_fires=None)
        injector = FaultInjector(plan)
        out = []
        for i in range(16):
            if other_sites:  # interleave extra visits to site b
                injector.visit("b", {})
            out.append(injector.visit("a", {}))
        return out

    # site a's firing sequence must not depend on how often b was visited
    assert run(other_sites=False) == run(other_sites=True)


def test_all_actions(tmp_path):
    slept, called = [], []
    plan = FaultPlan()
    plan.add("err", error="DeadlockError", message="boom")
    plan.add("zzz", action="delay", delay=0.25)
    plan.add("veto", action="veto")
    plan.add("cb", action="call", callback="hello", args={"x": 1})
    plan.add("drop", action="drop_conn")
    injector = FaultInjector(plan, callbacks={"hello":
                                              lambda x: called.append(x)},
                             sleep=slept.append)
    with pytest.raises(DeadlockError, match="boom"):
        injector.visit("err", {})
    injector.visit("zzz", {})
    assert slept == [0.25]
    assert injector.visit("veto", {}) is True
    injector.visit("cb", {})
    assert called == [1]
    with pytest.raises(DropConnection):
        injector.visit("drop", {})
    assert [f.site for f in injector.fired] == ["err", "zzz", "veto", "cb",
                                                "drop"]


def test_unknown_error_class_is_rejected():
    injector = FaultInjector(FaultPlan(specs=[FaultSpec(
        "x", error="NoSuchError")]))
    with pytest.raises(ValueError, match="NoSuchError"):
        injector.visit("x", {})


def test_fired_faults_land_in_metrics_and_recorder():
    from repro.metrics.flightrecorder import FlightRecorder

    registry = MetricsRegistry()
    recorder = FlightRecorder(ring_size=8)
    plan = FaultPlan()
    plan.add("some.site", action="veto", max_fires=None)
    injector = FaultInjector(plan, registry=registry, recorder=recorder)
    injector.visit("some.site", {"k": 1})
    injector.visit("some.site", {"k": 2})
    assert registry.counter("faults_fired_total", site="some.site",
                            action="veto").value == 2
    assert [op.op for op in recorder.ops()].count("fault:some.site") == 2
    assert injector.counts() == {"some.site": 2}
    assert injector.fired_keys() == [(1, "some.site", 0, "veto"),
                                     (2, "some.site", 0, "veto")]


def test_fault_point_is_inert_without_injector_and_scoped_with():
    assert faults.active() is None
    assert fault_point("anything.at.all", whatever=1) is False
    plan = FaultPlan()
    plan.add("scoped", action="veto")
    with installed(plan) as injector:
        assert faults.active() is injector
        assert fault_point("scoped") is True
    assert faults.active() is None
    assert fault_point("scoped") is False


# -- retry policy -----------------------------------------------------------------


class _TopOfRange(random.Random):
    """Every jitter draw lands on the top of its range: the cap."""

    def uniform(self, a, b):
        return b


def test_backoff_grows_exponentially_without_jitter():
    policy = RetryPolicy(base_delay=0.1, max_delay=1.0)
    delays = [policy.backoff(a, _TopOfRange()) for a in range(6)]
    assert delays == [0.0, 0.1, 0.2, 0.4, 0.8, 1.0]  # capped at max_delay


def test_backoff_full_jitter_is_bounded_and_seeded():
    policy = RetryPolicy(base_delay=0.1, max_delay=1.0)
    rng = random.Random(42)
    delays = [policy.backoff(3, rng) for _ in range(100)]
    assert all(0.0 <= d <= 0.4 for d in delays)
    assert len(set(delays)) > 1  # actually jittered
    rng2 = random.Random(42)
    assert delays == [policy.backoff(3, rng2) for _ in range(100)]


def test_commit_ambiguous_is_never_retryable():
    assert NEVER_RETRY == (CommitAmbiguousError,)
    # even when the retryable set would otherwise match it
    policy = RetryPolicy(retryable=(Exception,))
    assert not policy.is_retryable(CommitAmbiguousError("?"))
    assert policy.is_retryable(DeadlockError("d"))
    scoped = RetryPolicy(retryable=(DeadlockError,))
    assert not scoped.is_retryable(LockTimeoutError("t"))


def test_attempts_sleep_a_backoff_before_each_retry():
    slept = []
    policy = RetryPolicy(max_attempts=4, base_delay=0.1, max_delay=1.0)
    seen = list(policy.attempts(rng=_TopOfRange(), sleep=slept.append))
    assert seen == [0, 1, 2, 3]
    assert slept == [0.1, 0.2, 0.4]  # none before the first attempt


# -- an abort storm -------------------------------------------------------------


def test_degraded_mode_disabled_by_default():
    """An abort storm never stops a namenode serving writes: once the
    faults are gone the next mutation commits (no namenode turns
    read-only)."""
    fs = make_hopsfs(num_namenodes=1, clock=ManualClock())
    nn = fs.namenodes[0]
    storm = FaultPlan()
    storm.add("ndb.commit.before_apply", error="TransactionAbortedError",
              max_fires=None)
    with installed(storm):
        for i in range(12):
            with pytest.raises(TransactionAbortedError):
                nn.mkdirs(f"/x{i}")
    nn.mkdirs("/fine")
    assert nn.get_file_info("/fine") is not None
