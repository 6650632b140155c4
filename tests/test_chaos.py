"""Chaos suite: seeded workloads under randomized fault plans.

Each scenario drives a deterministic single-threaded workload against a
small HopsFS cluster while a seeded :class:`FaultPlan` injects failures
(commit aborts, lock timeouts, datanode kills mid-2PC, leader loss
mid-subtree-op, hint-cache staleness, ...). Invariants checked after
recovery:

* **acked visibility** — every operation the client saw succeed is
  visible afterwards (paths touched by failed/ambiguous mutations are
  excluded, since their state is legitimately unknown);
* **fsck clean** — one repair pass may reclaim crash debris (stale
  subtree locks of killed namenodes, §6.2), after which the namespace
  must verify with zero issues;
* **replay determinism** — re-running the same seed and plan on a fresh
  cluster reproduces the exact firing sequence;
* **metrics parity** — every firing is accounted in
  ``faults_fired_total``.

The process-level section exercises the RPC tier with real ``repro
serve`` subprocesses: commit-crash ambiguity resolution (satellite:
CommitAmbiguousError), reconnect accounting, drain-abort accounting,
duplicated responses and supervisor crash-loop handling.
"""

import json
import random
import time

import pytest

from repro.errors import (
    CommitAmbiguousError,
    CrashLoopError,
    ReproError,
)
from repro.faults import FaultInjector, FaultPlan, installed
from repro.hopsfs.fsck import Fsck
from repro.hopsfs.leader import MISSED_HEARTBEATS
from repro.metrics.registry import MetricsRegistry
from repro.util.clock import ManualClock

from .conftest import make_hopsfs

DIR = "__dir__"


# -- deterministic workload -------------------------------------------------------


def _content(rng):
    return f"payload-{rng.randrange(1 << 30)}".encode()


def _mark_uncertain(uncertain, *paths):
    uncertain.update(p for p in paths if p)


def _is_uncertain(path, uncertain):
    """A path's state is unknown if it, an ancestor, or a descendant was
    touched by a failed mutation (subtree ops fail in batches)."""
    for u in uncertain:
        if path == u or path.startswith(u + "/") or u.startswith(path + "/"):
            return True
    return False


def _apply_delete(expected, path):
    expected[path] = None
    for other in list(expected):
        if other.startswith(path + "/"):
            expected[other] = None


def run_workload(fs, client, seed, n_ops=40):
    """Seeded mixed workload; returns (expected, uncertain) model state.

    Single-threaded on purpose: replay determinism requires sites to be
    visited in a deterministic order (see repro.faults.injector).
    """
    rng = random.Random(seed)
    dirs = [f"/d{i}" for i in range(4)]
    expected = {}
    uncertain = set()

    def attempt(mutation, touched, apply_model):
        try:
            mutation()
        except ReproError:
            _mark_uncertain(uncertain, *touched)
        else:
            apply_model()
            for p in touched:
                uncertain.discard(p)

    for step in range(n_ops):
        d = rng.choice(dirs)
        f = f"{d}/f{rng.randrange(6)}"
        op = rng.randrange(10)
        if op == 0:
            attempt(lambda: client.mkdirs(d), (d,),
                    lambda: expected.__setitem__(d, DIR))
        elif op <= 4:
            data = _content(rng)
            attempt(lambda: client.write_file(f, data, overwrite=True),
                    (d, f),
                    lambda: expected.update({d: DIR, f: data}))
        elif op == 5:
            attempt(lambda: client.delete(f), (f,),
                    lambda: expected.__setitem__(f, None))
        elif op == 6:
            dst = f"{rng.choice(dirs)}/r{rng.randrange(6)}"

            def apply_rename(src=f, dst=dst):
                if expected.get(src) not in (None, DIR):
                    expected[dst] = expected[src]
                    expected[src] = None

            attempt(lambda: client.rename(f, dst), (f, dst), apply_rename)
        elif op == 7 and step > n_ops // 2:
            # subtree operation: recursive delete of a whole directory
            attempt(lambda: client.delete(d, recursive=True), (d,),
                    lambda: _apply_delete(expected, d))
        else:
            # reads may fail under faults too; they never move the model
            try:
                client.stat(f)
                client.list_status(d) if client.exists(d) else None
            except ReproError:
                pass
    return expected, uncertain


def recover(fs, clock):
    """Bring every component back and let membership converge."""
    cluster = fs.driver.cluster
    for node in range(cluster.config.num_datanodes):
        if node not in cluster.live_nodes():
            cluster.restart_node(node)
    if not fs.live_namenodes():
        fs.restart_namenode()
    # enough missed-heartbeat windows for dead namenodes to be declared
    # dead (stale subtree locks are only reclaimable afterwards)
    for _ in range(MISSED_HEARTBEATS + 2):
        clock.advance(1.0)
        fs.tick_heartbeats()


def verify_invariants(fs, expected, uncertain):
    checker = fs.client("verifier", seed=999)
    for path, value in sorted(expected.items()):
        if _is_uncertain(path, uncertain):
            continue
        status = checker.stat(path)
        if value is None:
            assert status is None, f"deleted {path} still visible"
        elif value == DIR:
            assert status is not None and status.is_dir, \
                f"acked directory {path} not visible"
        else:
            assert status is not None and not status.is_dir, \
                f"acked file {path} not visible"
            assert checker.read_file(path) == value, \
                f"acked contents of {path} lost"
    # one repair pass may reclaim crash debris; then zero issues remain
    Fsck(fs.any_namenode()).run(repair=True)
    report = Fsck(fs.any_namenode()).run()
    assert report.healthy, f"fsck after recovery: {report.by_check()}"


# -- the fault-plan catalog -------------------------------------------------------


def plan_commit_aborts(seed):
    plan = FaultPlan(seed=seed, name="commit-aborts")
    plan.add("ndb.commit.before_apply", error="TransactionAbortedError",
             probability=0.25, max_fires=None)
    return plan


def plan_lock_delays(seed):
    plan = FaultPlan(seed=seed, name="lock-delays")
    plan.add("ndb.lock.acquire", action="delay", delay=0.0005,
             probability=0.4, max_fires=None)
    return plan


def plan_lock_timeouts(seed):
    plan = FaultPlan(seed=seed, name="lock-timeouts")
    plan.add("ndb.lock.acquire", error="LockTimeoutError",
             probability=0.1, max_fires=None)
    return plan


def plan_log_flush_stall(seed):
    plan = FaultPlan(seed=seed, name="log-flush-stall")
    plan.add("ndb.log.flush", action="delay", delay=0.0005,
             probability=0.5, max_fires=None)
    return plan


def plan_datanode_kill_mid_2pc(seed):
    plan = FaultPlan(seed=seed, name="datanode-kill-mid-2pc")
    plan.add("ndb.commit.before_apply", action="call", callback="kill_dn",
             args={"node": 2}, skip=6, max_fires=1)
    return plan


def plan_partition_churn(seed):
    plan = FaultPlan(seed=seed, name="partition-churn")
    plan.add("hopsfs.op", action="call", callback="kill_dn",
             args={"node": 3}, skip=8, max_fires=1)
    plan.add("hopsfs.op", action="call", callback="restart_dn",
             args={"node": 3}, skip=24, max_fires=1)
    return plan


def plan_leader_loss_mid_subtree(seed):
    plan = FaultPlan(seed=seed, name="leader-loss-mid-subtree")
    plan.add("hopsfs.subtree.*", action="call", callback="kill_leader",
             max_fires=1)
    return plan


def plan_hintcache_staleness(seed):
    plan = FaultPlan(seed=seed, name="hintcache-staleness")
    plan.add("hopsfs.hintcache.get", action="veto", probability=0.3,
             max_fires=None)
    return plan


def plan_namenode_flaky(seed):
    plan = FaultPlan(seed=seed, name="namenode-flaky")
    plan.add("hopsfs.op", error="NameNodeUnavailableError",
             probability=0.1, max_fires=None)
    return plan


def plan_mixed_storm(seed):
    plan = FaultPlan(seed=seed, name="mixed-storm")
    plan.add("ndb.commit.before_apply", error="TransactionAbortedError",
             probability=0.1, max_fires=None)
    plan.add("ndb.lock.acquire", error="LockTimeoutError",
             probability=0.05, max_fires=None)
    plan.add("hopsfs.hintcache.get", action="veto", probability=0.2,
             max_fires=None)
    plan.add("ndb.commit.before_apply", action="call", callback="kill_dn",
             args={"node": 1}, skip=10, max_fires=1)
    return plan


PLANS = [
    plan_commit_aborts,
    plan_lock_delays,
    plan_lock_timeouts,
    plan_log_flush_stall,
    plan_datanode_kill_mid_2pc,
    plan_partition_churn,
    plan_leader_loss_mid_subtree,
    plan_hintcache_staleness,
    plan_namenode_flaky,
    plan_mixed_storm,
]


def _chaos_run(build_plan, seed):
    """One full chaos run; returns the injector firing log."""
    clock = ManualClock()
    fs = make_hopsfs(num_namenodes=2, clock=clock)
    client = fs.client("chaos", seed=seed)
    registry = MetricsRegistry()
    injector = FaultInjector(
        build_plan(seed), registry=registry,
        callbacks={
            "kill_dn": lambda node: fs.driver.cluster.kill_node(node),
            "restart_dn": lambda node: fs.driver.cluster.restart_node(node),
            "kill_leader": lambda: (
                fs.kill_namenode(fs.leader())
                if fs.leader() is not None
                and len(fs.live_namenodes()) > 1 else None),
        },
        sleep=lambda s: None)  # delays are virtual: keep the suite fast
    with installed(injector):
        expected, uncertain = run_workload(fs, client, seed)
    recover(fs, clock)
    verify_invariants(fs, expected, uncertain)
    # metrics parity: every firing has a faults_fired_total increment
    assert registry.sum_counters("faults_fired_total") == len(injector.fired)
    return injector.fired_keys()


@pytest.mark.parametrize("build_plan", PLANS,
                         ids=[p(0).name for p in PLANS])
@pytest.mark.lock_witness_exempt
def test_chaos_plan_invariants_and_replay(build_plan):
    first = _chaos_run(build_plan, seed=1234)
    replay = _chaos_run(build_plan, seed=1234)
    assert replay == first, "same seed+plan must reproduce the firings"


@pytest.mark.lock_witness_exempt
def test_chaos_different_seeds_still_hold_invariants():
    for seed in (7, 99):
        _chaos_run(plan_mixed_storm, seed)


# -- RPC-tier chaos over real server processes ------------------------------------


def _kv_schema():
    from repro.ndb import TableSchema

    return TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))


def _driver(handle, **kwargs):
    from repro.dal import RemoteDriver

    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("reconnect_backoff", 0.02)
    return RemoteDriver(handle.host, handle.port, **kwargs)


@pytest.fixture
def server():
    from repro.rpc import Supervisor

    with Supervisor() as sup:
        handle = sup.spawn("ndb-chaos", datanodes=4, replication=2,
                           lock_timeout=0.5)
        yield handle


def test_commit_ambiguous_resolves_committed(server):
    """Server crashes the connection *after* commit applied: the client
    gets CommitAmbiguousError, is never auto-retried, and a re-read
    against the database resolves the outcome as committed."""
    with _driver(server) as drv:
        drv.create_table(_kv_schema())
        session = drv.session()
        session.run(lambda tx: tx.insert("kv", {"k": 1, "v": "old"}))

        plan = FaultPlan(name="crash-after-commit")
        plan.add("rpc.server.commit.after", action="drop_conn", max_fires=1)
        drv.install_faults(plan)

        calls = []

        def mutate(tx):
            calls.append(1)
            tx.update("kv", (1,), {"v": "new"})

        with pytest.raises(CommitAmbiguousError):
            session.run(mutate)
        assert len(calls) == 1  # ambiguity is never transparently retried

        # the client's resolution protocol: reconnect and re-read
        fresh = drv.session()
        value = fresh.run(lambda tx: tx.read("kv", (1,))["v"])
        assert value == "new"  # the commit had applied
        assert drv.reconnects >= 1
        fired = drv.fired_faults()
        assert [f["site"] for f in fired["fired"]] == \
            ["rpc.server.commit.after"]


def test_commit_ambiguous_resolves_aborted(server):
    """Server crashes the connection *before* commit applied: same
    client-side ambiguity, but the re-read shows the old value (the
    server aborted the orphaned transaction on connection teardown)."""
    with _driver(server) as drv:
        drv.create_table(_kv_schema())
        session = drv.session()
        session.run(lambda tx: tx.insert("kv", {"k": 1, "v": "old"}))

        plan = FaultPlan(name="crash-before-commit")
        plan.add("rpc.server.commit.before", action="drop_conn",
                 max_fires=1)
        drv.install_faults(plan)

        with pytest.raises(CommitAmbiguousError):
            session.run(lambda tx: tx.update("kv", (1,), {"v": "new"}))

        fresh = drv.session()
        value = fresh.run(lambda tx: tx.read("kv", (1,))["v"])
        assert value == "old"  # the commit never applied
        # the orphaned tx's locks were released by conn teardown: a new
        # writer makes progress immediately
        fresh.run(lambda tx: tx.update("kv", (1,), {"v": "after"}))


def test_injected_frame_drop_and_reconnect_metric(server):
    """Client-side connection reset mid-request: the shared dial policy
    reconnects and rpc_client_reconnects_total counts it."""
    with _driver(server) as drv:
        drv.create_table(_kv_schema())
        plan = FaultPlan(name="client-conn-reset")
        # skip the first request inside the scope, drop the second
        plan.add("rpc.client.send", action="veto", skip=1, max_fires=1)
        with installed(plan):
            # idempotent read path: retries transparently across the
            # injected connection loss
            assert drv.table_size("kv") == 0
            assert drv.tables() == ["kv"]
        assert drv.reconnects >= 1
        assert drv.metrics.get_counter("rpc_client_reconnects_total") >= 1


def test_injected_pool_poisoning_redials(server):
    with _driver(server) as drv:
        drv.create_table(_kv_schema())
        drv.ping()
        before = drv.reconnects
        plan = FaultPlan(name="pool-poison")
        plan.add("dal.remote.pool.checkout", action="veto", max_fires=3)
        with installed(plan):
            for _ in range(3):
                drv.ping()
        assert drv.reconnects >= before + 1


def test_duplicated_response_is_tolerated(server):
    """Server sends every response twice for a while; the client must
    discard stale duplicates instead of desyncing the stream."""
    with _driver(server) as drv:
        drv.create_table(_kv_schema())
        plan = FaultPlan(name="dup-responses")
        plan.add("rpc.server.duplicate_response", action="veto",
                 max_fires=5)
        drv.install_faults(plan)
        session = drv.session()
        for i in range(8):
            session.run(lambda tx, i=i: tx.write("kv", {"k": i, "v": i}))
        drv.clear_faults()
        assert session.run(lambda tx: tx.read("kv", (7,))["v"]) == 7


def test_server_side_delay_fault(server):
    with _driver(server) as drv:
        plan = FaultPlan(name="slow-requests")
        plan.add("rpc.server.request", action="delay", delay=0.05,
                 match={"method": "ping"}, max_fires=1)
        drv.install_faults(plan)
        started = time.monotonic()
        drv.ping()
        assert time.monotonic() - started >= 0.04


def test_drain_aborted_transactions_are_counted(tmp_path):
    """SIGTERM with a transaction still open: the drain aborts it and
    the shutdown metrics snapshot records rpc_drain_aborted_total."""
    from repro.ndb import LockMode
    from repro.rpc import Supervisor

    metrics_path = tmp_path / "drain.metrics.json"
    with Supervisor() as sup:
        handle = sup.spawn("ndb-drain", datanodes=4, replication=2,
                           metrics_json=str(metrics_path))
        drv = _driver(handle)
        drv.create_table(_kv_schema())
        session = drv.session()
        tx = session.begin()
        # a locked read: the server learns of a transaction with its
        # first request (a buffered insert alone never leaves the client)
        tx.read("kv", (1,), lock=LockMode.EXCLUSIVE)
        tx.insert("kv", {"k": 1, "v": 1})  # open, uncommitted
        assert handle.stop() == 0
        drv.close()
    snapshot = json.loads(metrics_path.read_text())
    counters = {c["name"]: c["value"] for c in snapshot["counters"]}
    assert counters.get("rpc_drain_aborted_total", 0) >= 1


def test_supervisor_crash_loop_backs_off_then_raises():
    """Rapid child deaths respawn with backoff and surface a typed
    CrashLoopError at the cap instead of spinning forever."""
    from repro.rpc.supervisor import ServerHandle

    handle = ServerHandle("ndb-loop", {"datanodes": 4, "replication": 2})
    try:
        for _ in range(ServerHandle.CRASH_LOOP_LIMIT):
            handle.kill()
            assert handle.ensure_alive()  # respawned (rapid death 1..5)
        handle.kill()
        with pytest.raises(CrashLoopError, match="ndb-loop"):
            handle.ensure_alive()
        # operator re-arm: after reset the supervisor respawns again
        handle.reset_crash_loop()
        assert handle.ensure_alive()
        assert handle.alive
    finally:
        handle.stop()
