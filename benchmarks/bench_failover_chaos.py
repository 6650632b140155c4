"""Failover under injected faults: unavailability windows on the real stack.

Companion to ``bench_fig10_failover.py`` (which reproduces the paper's
Figure 10 on the discrete-event model): this benchmark drives the *real*
implementation through the deterministic fault-injection subsystem
(docs/robustness.md) and measures what a client actually experiences
when components die mid-workload:

* **ndb-datanode-kill-mid-2pc** — a database datanode is killed at the
  ``ndb.commit.before_apply`` site (after prepare, before apply); with
  R=2 replication the engine promotes replicas and service continues;
* **namenode-kill-failover** — the serving namenode is killed between
  operations; the sticky client fails over transparently (§7.6.1);
* **rpc-server-sigkill-respawn** — the ndb-server process is SIGKILLed
  and the supervisor respawns it; the window is the real process
  restart time as seen through the reconnecting driver.

Cells: failed/retried operation counts, the unavailability window (time
from the kill until the next successful operation) and p50/p99 client
latency before vs. after the fault.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_failover_chaos \
        --json BENCH_failover_chaos.json

The output is a record, not a gated baseline: no check reads it back.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Optional

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan, installed
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.ndb import NDBConfig
from repro.util.stats import percentile

SEED = 20260808


def _latency_cell(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {"p50_ms": round(percentile(ordered, 50) * 1e3, 3),
            "p99_ms": round(percentile(ordered, 99) * 1e3, 3),
            "ops": len(latencies)}


def _make_cluster() -> HopsFSCluster:
    return HopsFSCluster(
        num_namenodes=2, num_datanodes=3,
        config=HopsFSConfig(subtree_batch_size=16),
        ndb_config=NDBConfig(num_datanodes=4, replication=2,
                             lock_timeout=1.0))


def _steady_ops(client, n: int, phase: str, timeline: list) -> list[float]:
    """n stat/write ops; per-op latency, (t, ok) points onto timeline."""
    latencies = []
    for i in range(n):
        path = f"/bench/{phase}/f{i % 8}"
        started = time.perf_counter()
        try:
            client.write_file(path, b"x" * 64, overwrite=True)
            client.stat(path)
        except ReproError:
            timeline.append((time.perf_counter(), False))
            continue
        now = time.perf_counter()
        latencies.append(now - started)
        timeline.append((now, True))
    return latencies


def _window_after(timeline: list, t_fault: float) -> float:
    """Seconds from the fault until the next successful operation."""
    after = [t for t, ok in timeline if ok and t >= t_fault]
    return (after[0] - t_fault) if after else float("inf")


def _chaos_scenario(kill_site: str, callback_name: str, ops: int,
                    make_callbacks, restart) -> dict:
    fs = _make_cluster()
    client = fs.client("bench", seed=SEED)
    client.mkdirs("/bench")
    timeline: list = []
    t_fault: dict = {}

    def stamped(fn):
        def wrapper(**kwargs):
            t_fault["t"] = time.perf_counter()
            fn(**kwargs)
        return wrapper

    callbacks = {name: stamped(fn)
                 for name, fn in make_callbacks(fs, client).items()}
    before = _steady_ops(client, ops, "before", timeline)
    plan = FaultPlan(seed=SEED, name=f"bench-{callback_name}")
    plan.add(kill_site, action="call", callback=callback_name, max_fires=1)
    injector = FaultInjector(plan, callbacks=callbacks)
    with installed(injector):
        during = _steady_ops(client, ops, "during", timeline)
    restart(fs)
    after = _steady_ops(client, ops, "after", timeline)
    failed = sum(1 for _t, ok in timeline if not ok)
    return {
        "fault_site": kill_site,
        "faults_fired": len(injector.fired),
        "failed_ops": failed,
        "client_transparent_retries": client.operations_retried,
        "unavailability_window_ms": round(
            _window_after(timeline, t_fault.get(
                "t", timeline[0][0])) * 1e3, 3),
        "latency": {"before": _latency_cell(before),
                    "during_fault": _latency_cell(during),
                    "after_recovery": _latency_cell(after)},
    }


def scenario_datanode_kill(ops: int) -> dict:
    def callbacks(fs, _client):
        return {"kill_dn": lambda: fs.driver.kill_node(2)}

    def restart(fs):
        fs.driver.restart_node(2)

    return _chaos_scenario("ndb.commit.before_apply", "kill_dn", ops,
                           callbacks, restart)


def scenario_namenode_kill(ops: int) -> dict:
    def callbacks(fs, client):
        def kill_serving_nn():
            victim = client._sticky or fs.leader()
            if victim is not None and len(fs.live_namenodes()) > 1:
                fs.kill_namenode(victim)
        return {"kill_nn": kill_serving_nn}

    def restart(fs):
        fs.restart_namenode()

    return _chaos_scenario("hopsfs.op", "kill_nn", ops,
                           callbacks, restart)


def scenario_rpc_server_sigkill(ops: int) -> dict:
    import socket

    from repro.dal import RemoteDriver
    from repro.ndb import TableSchema
    from repro.rpc import Supervisor

    # a fixed port so the respawned process is reachable at the same
    # address the driver keeps redialing
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    kv = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))
    timeline: list = []
    with Supervisor() as sup:
        handle = sup.spawn("bench-ndb", host="127.0.0.1", port=port,
                           datanodes=4, replication=2)
        with RemoteDriver("127.0.0.1", port, timeout=10.0,
                          reconnect_backoff=0.02) as drv:
            drv.create_table(kv)
            session = drv.session()

            def one_op(i: int) -> Optional[float]:
                started = time.perf_counter()
                try:
                    session.run(lambda tx: tx.write(
                        "kv", {"k": i % 16, "v": i}))
                except ReproError:
                    timeline.append((time.perf_counter(), False))
                    return None
                now = time.perf_counter()
                timeline.append((now, True))
                return now - started

            before = [d for d in (one_op(i) for i in range(ops))
                      if d is not None]
            handle.kill()  # SIGKILL: no drain, no goodbye
            t_fault = time.perf_counter()
            handle.ensure_alive()  # supervisor respawn (fresh state)
            # idempotent pings redial with the shared jittered policy;
            # the first success marks the end of the outage as the
            # client sees it (non-idempotent calls fail fast until then)
            while True:
                try:
                    drv.ping()
                    break
                except ReproError:
                    timeline.append((time.perf_counter(), False))
                    time.sleep(0.01)
            t_recovered = time.perf_counter()
            drv.create_table(kv)   # the respawned engine starts empty
            after = [d for d in (one_op(i) for i in range(ops))
                     if d is not None]
    return {
        "fault_site": "SIGKILL of the ndb-server process",
        "failed_ops": sum(1 for _t, ok in timeline if not ok),
        "supervisor_restarts": handle.restarts,
        "driver_reconnects": drv.reconnects,
        "unavailability_window_ms": round((t_recovered - t_fault) * 1e3, 3),
        "latency": {"before": _latency_cell(before),
                    "after_recovery": _latency_cell(after)},
    }


def run_benchmark(ops: int, skip_process: bool = False) -> dict:
    scenarios = {
        "ndb_datanode_kill_mid_2pc": scenario_datanode_kill(ops),
        "namenode_kill_failover": scenario_namenode_kill(ops),
    }
    if not skip_process:
        scenarios["rpc_server_sigkill_respawn"] = \
            scenario_rpc_server_sigkill(ops)
    return {
        "workload": {
            "op": "write_file(64B, overwrite) + stat per iteration",
            "ops_per_phase": ops,
            "cluster": "2 NN / 3 DN hopsfs on 4-node R=2 NDB",
            "seed": SEED,
            "host_cpus": os.cpu_count(),
        },
        "scenarios": scenarios,
        "note": "record, not a gated baseline; windows are real "
                "wall-clock including supervisor respawn time",
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=60,
                        help="operations per phase (before/during/after)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts (CI wiring check)")
    parser.add_argument("--skip-process", action="store_true",
                        help="in-process scenarios only")
    parser.add_argument("--json", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    ops = 8 if args.smoke else args.ops
    results = run_benchmark(ops, skip_process=args.skip_process)
    print(json.dumps(results, indent=2))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
