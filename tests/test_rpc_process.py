"""Process-deployment tests: real ndb-server subprocesses.

These spawn ``python -m repro serve`` children through the supervisor
and exercise the full deployment story — READY handshake, graceful
SIGTERM shutdown with observability persistence, kill -9 plus respawn,
and a kill-datanode-mid-commit failover storm over the wire.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.dal import RemoteDriver
from repro.ndb import TableSchema
from repro.rpc import ServerHandle, Supervisor
from repro.rpc.supervisor import _Placement, pick_cpu

KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))

SERVER_OPTIONS = dict(datanodes=4, replication=2, lock_timeout=0.5)


def _driver(handle_or_addr, **kwargs):
    host, port = (handle_or_addr if isinstance(handle_or_addr, tuple)
                  else (handle_or_addr.host, handle_or_addr.port))
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("reconnect_backoff", 0.02)
    return RemoteDriver(host, port, **kwargs)


def test_supervisor_spawns_and_serves():
    with Supervisor() as sup:
        handle = sup.spawn("ndb-test", **SERVER_OPTIONS)
        assert handle.alive and handle.port > 0 and handle.pid > 0
        with _driver(handle) as drv:
            drv.create_table(KV)
            session = drv.session()
            session.run(lambda tx: tx.insert("kv", {"k": 1, "v": 2}))
            assert session.run(lambda tx: tx.read("kv", (1,))["v"]) == 2
            assert "remote(" in drv.engine_name
    assert not handle.alive  # context exit stopped the child


def test_sigterm_exits_cleanly_and_persists_observability(tmp_path):
    metrics_path = tmp_path / "ndb-m.metrics.json"
    flight_dir = tmp_path / "flight"
    with Supervisor() as sup:
        handle = sup.spawn("ndb-m", metrics_json=str(metrics_path),
                           flight_dir=str(flight_dir), **SERVER_OPTIONS)
        with _driver(handle) as drv:
            drv.create_table(KV)
            session = drv.session()
            for i in range(5):
                session.run(lambda tx, i=i:
                            tx.write("kv", {"k": i, "v": i}))
        returncode = handle.stop()
    assert returncode == 0  # SIGTERM -> graceful drain -> clean exit

    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["meta"]["server"] == "ndb-m"
    assert snapshot["meta"]["pid"] == handle.pid
    requests = sum(c["value"] for c in snapshot["counters"]
                   if c["name"] == "rpc_requests_total")
    assert requests >= 5
    # the snapshot is the mergeable kind: histograms carry raw samples
    assert any(h.get("samples") for h in snapshot["histograms"])
    # per-process flight-recorder dump directory
    dumps = list(flight_dir.glob("*.json"))
    assert dumps, "no flight dump written on shutdown"


def test_kill9_then_ensure_alive_respawns():
    with Supervisor() as sup:
        handle = sup.spawn("ndb-k", **SERVER_OPTIONS)
        first_pid = handle.pid
        os.kill(handle.pid, signal.SIGKILL)
        deadline = time.time() + 10
        while handle.alive and time.time() < deadline:
            time.sleep(0.05)
        assert not handle.alive and handle.returncode != 0

        assert sup.ensure_all_alive() == ["ndb-k"]
        assert handle.alive and handle.restarts == 1
        assert handle.pid != first_pid
        # a fresh child is a fresh empty engine on a fresh port; the
        # client just reconnects and rebuilds
        with _driver(handle) as drv:
            drv.create_table(KV)
            session = drv.session()
            session.run(lambda tx: tx.insert("kv", {"k": 7, "v": 7}))
            assert drv.table_size("kv") == 1


def test_server_pool_no_leaked_processes():
    with Supervisor() as sup:
        handles = [sup.spawn(f"pool{i}", **SERVER_OPTIONS) for i in range(2)]
        pids = [handle.pid for handle in handles]
        for handle in handles:
            with _driver(handle) as drv:
                assert drv.is_available()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # exited and reaped: no leaked children


def test_ready_line_with_a_space_in_the_unix_path(tmp_path, monkeypatch):
    # split on blanks, the unquoted path raised in the output drainer and
    # the spawn waited out READY_TIMEOUT
    monkeypatch.setattr(ServerHandle, "READY_TIMEOUT", 5.0)
    directory = tmp_path / "a b"
    directory.mkdir()
    path = str(directory / "ndb.sock")
    with Supervisor() as sup:
        handle = sup.spawn("ndb-space", unix=path, **SERVER_OPTIONS)
        assert handle.unix_path == path
        with _driver(handle, unix_path=handle.unix_path) as drv:
            assert drv.is_available()


def test_pick_cpu_takes_the_highest_free_cpu_and_never_the_lowest():
    assert pick_cpu({0}, []) is None
    assert pick_cpu({0, 1}, []) == 1
    assert pick_cpu({0, 1}, [1]) is None
    taken = []
    for _ in range(4):
        taken.append(pick_cpu(range(4), taken))
    assert taken == [3, 2, 1, None]
    assert pick_cpu(set(), []) is None  # no affinity support


def test_supervisor_places_each_server_and_a_respawn_keeps_its_cpu(
        monkeypatch):
    spawned, parent = [], []
    monkeypatch.setattr("repro.rpc.supervisor._PLACEMENT", _Placement())
    monkeypatch.setattr("repro.rpc.supervisor._allowed_cpus",
                        lambda: frozenset(range(4)))
    monkeypatch.setattr("repro.rpc.supervisor._process_on", parent.append)
    monkeypatch.setattr(ServerHandle, "_spawn",
                        lambda self: spawned.append((self.name, self.cpu)))
    sup = Supervisor()
    handles = [sup.spawn(f"s{i}") for i in range(4)]
    assert [h.cpu for h in handles] == [3, 2, 1, None]
    assert parent == [{0, 1, 2}, {0, 1}, {0}]  # off every server's CPU
    assert handles[1].ensure_alive()  # never started, so never alive
    assert spawned[-1] == ("s1", 2)
    sup.stop_all()
    assert parent[-1] == {0, 1, 2, 3}


def test_supervisors_in_one_process_share_the_placement(monkeypatch):
    parent = []
    monkeypatch.setattr("repro.rpc.supervisor._PLACEMENT", _Placement())
    monkeypatch.setattr("repro.rpc.supervisor._allowed_cpus",
                        lambda: frozenset(range(4)))
    monkeypatch.setattr("repro.rpc.supervisor._process_on", parent.append)
    monkeypatch.setattr(ServerHandle, "_spawn", lambda self: None)
    first, second = Supervisor(), Supervisor()
    assert first.spawn("a").cpu == 3
    assert second.spawn("b").cpu == 2  # not the CPU the first one holds
    first.stop_all()
    assert parent[-1] == {0, 1, 3}  # the second's server keeps its CPU
    assert second.spawn("c").cpu == 3
    second.stop_all()
    assert parent[-1] == {0, 1, 2, 3}


def test_a_failed_spawn_gives_its_cpu_back(monkeypatch):
    def never_ready(self):
        raise RuntimeError("never reported READY")

    monkeypatch.setattr("repro.rpc.supervisor._PLACEMENT", _Placement())
    monkeypatch.setattr("repro.rpc.supervisor._allowed_cpus",
                        lambda: frozenset(range(2)))
    monkeypatch.setattr("repro.rpc.supervisor._process_on", lambda cpus: None)
    monkeypatch.setattr(ServerHandle, "_spawn", never_ready)
    sup = Supervisor()
    with pytest.raises(RuntimeError):
        sup.spawn("a")
    monkeypatch.setattr(ServerHandle, "_spawn", lambda self: None)
    assert sup.spawn("a").cpu == 1


def _thread_cpus(pid: int) -> list[set[int]]:
    masks = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            masks.append(os.sched_getaffinity(int(tid)))
        except ProcessLookupError:
            pass  # the thread ended between the listing and the read
    return masks


_AFFINITY = hasattr(os, "sched_getaffinity")


@pytest.mark.skipif(not _AFFINITY or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and at least 2 CPUs")
def test_every_thread_of_a_spawned_server_runs_on_its_cpu():
    allowed = os.sched_getaffinity(0)
    with Supervisor() as sup:
        handle = sup.spawn("ndb-pin", metrics_port=0, **SERVER_OPTIONS)
        assert handle.cpu == max(allowed)
        assert all(mask == allowed - {handle.cpu}
                   for mask in _thread_cpus(os.getpid()))
        for respawn in (False, True):
            if respawn:
                handle.kill()
                assert handle.ensure_alive()
            with _driver(handle) as drv:
                drv.create_table(KV)
                drv.session().run(lambda tx: tx.insert("kv", {"k": 1, "v": 1}))
            masks = _thread_cpus(handle.pid)
            assert len(masks) > 1
            assert all(mask == {handle.cpu} for mask in masks), masks
        second = sup.spawn("ndb-pin2", **SERVER_OPTIONS)
        if len(allowed) == 2:
            assert second.cpu is None
            assert all(mask == allowed for mask in _thread_cpus(second.pid))
    assert all(mask == allowed for mask in _thread_cpus(os.getpid()))


def test_kill_datanode_mid_commit_storm_in_process_mode():
    """The ISSUE's failover scenario, against a real server process."""
    with Supervisor() as sup:
        handle = sup.spawn("ndb-f", **SERVER_OPTIONS)
        with _driver(handle) as drv:
            drv.create_table(KV)
            seed = drv.session()
            seed.run(lambda tx: [tx.insert("kv", {"k": i, "v": i})
                                 for i in range(8)])

            errors: list[Exception] = []

            def worker(tid: int) -> None:
                session = drv.session()
                try:
                    for i in range(12):
                        key = 1000 + tid * 100 + i

                        def fn(tx, key=key, i=i):
                            tx.read("kv", (tid,))
                            tx.write("kv", {"k": key, "v": i})

                        session.run(fn, retries=10)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(tid,))
                       for tid in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.05)
            drv.kill_node(2)  # mid-storm datanode failure
            time.sleep(0.1)
            drv.restart_node(2)
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert sorted(drv.live_nodes()) == [0, 1, 2, 3]
            assert drv.table_size("kv") == 8 + 3 * 12

            # replica identity across the wire after failover + recovery
            for pid, replicas in drv.replica_snapshots("kv").items():
                for replica in replicas[1:]:
                    assert replica == replicas[0], f"partition {pid} diverged"
