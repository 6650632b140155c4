"""Benchmark: throughput of the shard-parallel engine.

Measures wall-clock throughput of a mixed read-batch + multi-row-update
workload at 1/2/4/8 client threads on the engine as it ships (the
``parallel`` cell): one row-lock table, a shard executor, and
group-committed 2PC that holds only the touched fragments' locks.

It runs with a simulated per-round-trip network delay
(``network_delay``) — the engine is in-memory, so without modelled
latency it is GIL-bound pure Python and thread counts change nothing;
with it, the engine overlaps the delays of a fan-out, which is exactly
what the paper's NDB deployment gets from real network I/O.

The inline, globally-exclusive-commit engine this replaced
is gone from the code; its last measured numbers (617 vs 1455 ops/s at 8
threads, 2.36x) are kept under ``"history"`` in
``BENCH_engine_parallelism.json`` and are not re-run.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_parallelism.py \
        --json BENCH_engine_parallelism.json

``--deploy process`` switches to the *deployment* comparison instead:
embedded (client threads call the engine in-process) versus process mode
(client threads speak the RPC protocol to a pool of ndb-server
processes, :mod:`repro.rpc`). A server process has a fixed internal
shard-executor budget — the analog of an ndbmtd process's fixed thread
count — so one process's throughput flattens once enough client threads
pile on; adding server processes multiplies that budget, which is how
the paper's deployment (and this benchmark's process mode) keeps
scaling past the single-process wall::

    PYTHONPATH=src python benchmarks/bench_engine_parallelism.py \
        --deploy process --json BENCH_process_deploy.json

``--smoke`` shrinks the op counts for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from typing import Callable

from repro.ndb import NDBCluster, NDBConfig, TableSchema

KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))

THREADS = (1, 2, 4, 8)
NETWORK_DELAY = 0.0003  # 0.3 ms simulated round trip
LOG_FLUSH_DELAY = 0.0002
KEYSPACE = 4096
BATCH_READ = 4
WRITES_PER_OP = 2

# -- deployment-comparison profile (--deploy process) --------------------------
#
# The deployment profile models a *remote* database (milliseconds per
# round trip, like a LAN NDB deployment) rather than the sub-millisecond
# in-memory profile above: what is being measured is where the serving
# capacity lives, not the engine's internal fan-out. Each engine process
# gets a fixed shard-executor budget (DEPLOY_EXECUTOR_THREADS — the
# ndbmtd fixed-LDM-thread analog); per-op work is kept small so the
# comparison stays sleep-dominated and machine-independent.

DEPLOY_THREADS = (1, 2, 4, 8, 16)
DEPLOY_NETWORK_DELAY = 0.02      # 20 ms simulated round trip (remote DB)
DEPLOY_LOG_FLUSH_DELAY = 0.005
DEPLOY_EXECUTOR_THREADS = 8      # fixed per-process engine capacity
DEPLOY_SERVERS = 4               # ndb-server processes in process mode
DEPLOY_BATCH_READ = 2
DEPLOY_WRITES_PER_OP = 1

DEPLOY_PROFILE = dict(
    num_datanodes=4, replication=2, lock_timeout=10.0,
    network_delay=DEPLOY_NETWORK_DELAY,
    log_flush_delay=DEPLOY_LOG_FLUSH_DELAY,
    executor_threads=DEPLOY_EXECUTOR_THREADS,
)


def make_cluster() -> NDBCluster:
    cluster = NDBCluster(NDBConfig(
        num_datanodes=4, replication=2, lock_timeout=10.0,
        network_delay=NETWORK_DELAY, log_flush_delay=LOG_FLUSH_DELAY))
    cluster.create_table(KV)
    with cluster.begin() as tx:
        for i in range(0, KEYSPACE, 8):
            tx.insert("kv", {"k": i, "v": 0})
    return cluster


def run_ops(new_session: Callable[[int], object], n_threads: int,
            total_ops: int, *, batch_read: int = BATCH_READ,
            writes_per_op: int = WRITES_PER_OP) -> float:
    """Drive ``total_ops`` mixed transactions from ``n_threads`` client
    threads; returns achieved ops/s.

    ``new_session(tid)`` supplies each worker's session — an embedded
    cluster session or a :class:`~repro.dal.RemoteDriver` session bound
    to one of several server processes.
    """
    per_thread = total_ops // n_threads
    barrier = threading.Barrier(n_threads + 1)
    errors: list[Exception] = []

    def worker(tid: int) -> None:
        session = new_session(tid)
        rng_base = tid * 7919
        barrier.wait()
        try:
            for i in range(per_thread):
                # disjoint key ranges per thread: measures engine
                # overlap, not application-level row conflicts
                base = (rng_base + i * 17) % KEYSPACE
                read_keys = [((base + j * 8) % KEYSPACE,)
                             for j in range(batch_read)]
                write_keys = [(tid * (KEYSPACE // 8) + i * writes_per_op + j)
                              % KEYSPACE + KEYSPACE
                              for j in range(writes_per_op)]

                def fn(tx, i=i, read_keys=read_keys,
                       write_keys=write_keys):
                    tx.read_batch("kv", read_keys)
                    for k in write_keys:
                        tx.write("kv", {"k": k, "v": i})

                session.run(fn)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(n_threads)]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return (per_thread * n_threads) / elapsed


def run_benchmark(total_ops: int) -> dict:
    cells: dict[str, float] = {}
    for n_threads in THREADS:
        cluster = make_cluster()

        def new_session(_tid, cluster=cluster):
            return cluster.session()

        try:
            run_ops(new_session, n_threads, max(n_threads, total_ops // 8))
            ops = run_ops(new_session, n_threads, total_ops)  # warmed
        finally:
            cluster.close()
        cells[str(n_threads)] = round(ops, 1)
    return {
        "kind": "engine",
        "workload": {
            "total_ops": total_ops,
            "threads": list(THREADS),
            "batch_read_keys": BATCH_READ,
            "writes_per_op": WRITES_PER_OP,
            "network_delay_s": NETWORK_DELAY,
            "log_flush_delay_s": LOG_FLUSH_DELAY,
        },
        "ops_per_second": {"parallel": cells},
    }


def _preload(session_factory: Callable[[], object]) -> None:
    """Seed every 8th key of the keyspace through a DAL session."""
    session = session_factory()

    def seed(tx) -> None:
        for i in range(0, KEYSPACE, 8):
            tx.write("kv", {"k": i, "v": 0})

    session.run(seed)


def _deploy_cell_ops(total_ops: int, n_threads: int) -> int:
    """Hold per-thread op counts constant across thread counts so the
    16-thread cell doesn't shrink each thread's sample to nothing."""
    return max(n_threads, (total_ops // 8) * n_threads)


def run_deploy_benchmark(total_ops: int) -> dict:
    """Embedded vs process deployment at the remote-database profile."""
    from repro.dal import RemoteDriver
    from repro.rpc import ServerPool

    results: dict[str, dict[str, float]] = {"embedded": {}, "process": {}}

    # -- embedded: client threads call the engine inside their own process
    for n_threads in DEPLOY_THREADS:
        cluster = NDBCluster(NDBConfig(**DEPLOY_PROFILE))
        cluster.create_table(KV)

        def new_session(_tid, cluster=cluster):
            return cluster.session()

        try:
            _preload(cluster.session)
            cell_ops = _deploy_cell_ops(total_ops, n_threads)
            run_ops(new_session, n_threads, max(n_threads, cell_ops // 8),
                    batch_read=DEPLOY_BATCH_READ,
                    writes_per_op=DEPLOY_WRITES_PER_OP)
            ops = run_ops(new_session, n_threads, cell_ops,
                          batch_read=DEPLOY_BATCH_READ,
                          writes_per_op=DEPLOY_WRITES_PER_OP)
        finally:
            cluster.close()
        results["embedded"][str(n_threads)] = round(ops, 1)

    # -- process: the same engine profile behind DEPLOY_SERVERS ndb-server
    # processes; client threads bind round-robin (disjoint per-thread key
    # ranges make the servers independent capacity units, the way a
    # partitioned deployment spreads clients across ndbmtd processes)
    pool_options = dict(
        datanodes=DEPLOY_PROFILE["num_datanodes"],
        replication=DEPLOY_PROFILE["replication"],
        lock_timeout=DEPLOY_PROFILE["lock_timeout"],
        network_delay=DEPLOY_PROFILE["network_delay"],
        log_flush_delay=DEPLOY_PROFILE["log_flush_delay"],
        executor_threads=DEPLOY_PROFILE["executor_threads"],
    )
    with ServerPool(DEPLOY_SERVERS, **pool_options) as pool:
        drivers = [RemoteDriver(host, port, timeout=120.0)
                   for host, port in pool.addresses]
        try:
            for driver in drivers:
                driver.create_table(KV)
                _preload(driver.session)
            def new_session(tid):
                return drivers[tid % len(drivers)].session()

            for n_threads in DEPLOY_THREADS:
                cell_ops = _deploy_cell_ops(total_ops, n_threads)
                run_ops(new_session, n_threads,
                        max(n_threads, cell_ops // 8),
                        batch_read=DEPLOY_BATCH_READ,
                        writes_per_op=DEPLOY_WRITES_PER_OP)
                ops = run_ops(new_session, n_threads, cell_ops,
                              batch_read=DEPLOY_BATCH_READ,
                              writes_per_op=DEPLOY_WRITES_PER_OP)
                results["process"][str(n_threads)] = round(ops, 1)
        finally:
            for driver in drivers:
                driver.close()

    lo, hi = str(DEPLOY_THREADS[-2]), str(DEPLOY_THREADS[-1])
    return {
        "kind": "deploy",
        "workload": {
            "total_ops_at_8_threads": _deploy_cell_ops(total_ops, 8),
            "threads": list(DEPLOY_THREADS),
            "batch_read_keys": DEPLOY_BATCH_READ,
            "writes_per_op": DEPLOY_WRITES_PER_OP,
            "network_delay_s": DEPLOY_NETWORK_DELAY,
            "log_flush_delay_s": DEPLOY_LOG_FLUSH_DELAY,
            "host_cpus": os.cpu_count(),
        },
        "deployment": {
            "server_processes": DEPLOY_SERVERS,
            "executor_threads_per_process": DEPLOY_EXECUTOR_THREADS,
            "note": "a server process is one fixed-capacity unit "
                    "(ndbmtd analog); embedded mode has exactly one",
        },
        "ops_per_second": results,
        "scaling_8_to_16": {
            mode: round(cells[hi] / cells[lo], 2)
            for mode, cells in results.items()
        },
    }


def print_deploy_report(report: dict) -> None:
    print(f"{'threads':>8} | {'embedded ops/s':>15} | "
          f"{'process ops/s':>14} | {'ratio':>7}")
    print("-" * 55)
    ops = report["ops_per_second"]
    for n in report["workload"]["threads"]:
        emb = ops["embedded"][str(n)]
        proc = ops["process"][str(n)]
        print(f"{n:>8} | {emb:>15.1f} | {proc:>14.1f} | "
              f"{proc / emb:>6.2f}x")
    scale = report["scaling_8_to_16"]
    print(f"\nscaling 8 -> 16 threads: "
          f"embedded {scale['embedded']:.2f}x, "
          f"process {scale['process']:.2f}x "
          f"(process target >= 1.3x, embedded expected ~flat)")


def export_artifacts(chrome_path: str | None,
                     flight_path: str | None) -> list[str]:
    """Run a short fully-traced workload on the parallel engine and write
    the tracing-v2 artifacts: a Chrome/Perfetto timeline of every trace
    (including worker-thread shard/commit spans) and a flight-recorder
    dump that contains one deliberately failed, retried operation."""
    from repro.errors import TransactionAbortedError
    from repro.metrics import FlightRecorder, Tracer
    from repro.metrics.traceexport import write_chrome

    cluster = make_cluster()
    session = cluster.session()
    tracer = Tracer(sample_every=1)
    recorder = FlightRecorder(name="bench")
    try:
        for i in range(8):
            record = recorder.begin("bench_op")
            with tracer.trace("bench_op") as trace:
                read_keys = [((i * 64 + j * 8) % KEYSPACE,)
                             for j in range(BATCH_READ)]

                def fn(tx, i=i, read_keys=read_keys):
                    tx.read_batch("kv", read_keys)
                    for j in range(WRITES_PER_OP):
                        tx.write("kv", {"k": KEYSPACE + i * 8 + j, "v": i})

                session.run(fn)
            recorder.end(record, trace_id=trace.trace_id)

        record = recorder.begin("bench_fail")
        trace = None
        try:
            with tracer.trace("bench_fail") as trace:
                def failing(tx):
                    tx.read("kv", (0,))
                    raise TransactionAbortedError("bench-injected failure")

                session.run(failing, retries=2)
        except TransactionAbortedError as exc:
            recorder.end(record, error=exc,
                         trace_id=trace.trace_id if trace else None)
        for trace in tracer.recent():
            recorder.keep_trace(trace)
    finally:
        cluster.close()

    written = []
    if chrome_path:
        write_chrome(tracer.recent(), chrome_path,
                     meta={"source": "bench_engine_parallelism"})
        written.append(chrome_path)
    if flight_path:
        written.append(recorder.dump(flight_path, reason="benchmark"))
    return written


def export_distributed_artifacts(chrome_path: str | None,
                                 metrics_path: str | None) -> list[str]:
    """Run a short fully-traced workload against a live :class:`ServerPool`
    and write the cross-process observability artifacts: a Chrome/Perfetto
    timeline where every ndb-server renders as its own process lane (the
    client's traces carry the grafted, clock-aligned server span trees),
    and a windowed metrics snapshot fetched from a server's live
    ``--metrics-port`` HTTP endpoint."""
    from urllib.request import urlopen

    from repro.dal import RemoteDriver
    from repro.metrics import Tracer
    from repro.metrics.traceexport import write_chrome
    from repro.rpc import ServerPool

    written: list[str] = []
    tracer = Tracer(sample_every=1)
    with ServerPool(2, datanodes=4, replication=2,
                    metrics_port=0) as pool:
        drivers = [RemoteDriver(host, port)
                   for host, port in pool.addresses]
        try:
            for driver in drivers:
                driver.create_table(KV)
            for i in range(8):
                session = drivers[i % len(drivers)].session()
                with tracer.trace("bench_remote_op"):
                    def fn(tx, i=i):
                        tx.insert("kv", {"k": i, "v": i})
                        tx.read("kv", (i,))
                    session.run(fn)
            if chrome_path:
                write_chrome(tracer.recent(), chrome_path,
                             meta={"source":
                                   "bench_engine_parallelism "
                                   "--deploy process"})
                written.append(chrome_path)
            if metrics_path:
                host, port = pool.metrics_addresses[0]
                url = f"http://{host}:{port}/metrics.json?window=60"
                with urlopen(url, timeout=10.0) as resp:
                    payload = resp.read()
                with open(metrics_path, "wb") as fh:
                    fh.write(payload)
                written.append(metrics_path)
        finally:
            for driver in drivers:
                driver.close()
    return written


def print_report(report: dict) -> None:
    print(f"{'threads':>8} | {'ops/s':>10}")
    print("-" * 21)
    for n, ops in report["ops_per_second"]["parallel"].items():
        print(f"{n:>8} | {ops:>10.1f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report as JSON to PATH")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts for CI; no scaling assertion")
    parser.add_argument("--ops", type=int, default=None,
                        help="override total ops per cell")
    parser.add_argument("--deploy", choices=("engine", "process"),
                        default="engine",
                        help="'engine': engine throughput by client "
                             "threads (default); 'process': embedded vs "
                             "ndb-server-process deployment comparison")
    parser.add_argument("--chrome-trace", metavar="PATH", default=None,
                        help="export a Chrome/Perfetto timeline of a "
                             "fully-traced parallel run to PATH")
    parser.add_argument("--flight-dump", metavar="PATH", default=None,
                        help="write a flight-recorder dump (including one "
                             "injected failure) to PATH")
    parser.add_argument("--distributed-chrome-trace", metavar="PATH",
                        default=None,
                        help="export a merged cross-process Chrome/"
                             "Perfetto timeline of a fully-traced "
                             "workload over a live ServerPool to PATH")
    parser.add_argument("--metrics-port-json", metavar="PATH",
                        default=None,
                        help="fetch /metrics.json (windowed view) from a "
                             "live server's --metrics-port endpoint and "
                             "write it to PATH")
    args = parser.parse_args()

    if args.deploy == "process":
        total_ops = args.ops if args.ops else (32 if args.smoke else 240)
        report = run_deploy_benchmark(total_ops)
        print_deploy_report(report)
    else:
        total_ops = args.ops if args.ops else (64 if args.smoke else 400)
        report = run_benchmark(total_ops)
        print_report(report)
    if args.chrome_trace or args.flight_dump:
        for path in export_artifacts(args.chrome_trace, args.flight_dump):
            print(f"wrote {path}")
    if args.distributed_chrome_trace or args.metrics_port_json:
        for path in export_distributed_artifacts(
                args.distributed_chrome_trace, args.metrics_port_json):
            print(f"wrote {path}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if (not args.smoke and args.deploy == "process"
            and report["scaling_8_to_16"]["process"] < 1.3):
        print("FAIL: process mode is not scaling past 8 threads")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
