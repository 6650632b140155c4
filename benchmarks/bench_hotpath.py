"""Benchmark: the hot-path cost program's headline numbers.

Measures a *stat-heavy* metadata workload (the read-dominant mix that
dominates real HDFS traces — PAPER.md §5, Fletch in PAPERS.md) through
the full namenode stack, in three deployment cells:

* ``embedded-optimized`` — engine and namenode defaults: the batched
  resolve takes the strongest locks itself (a warm stat is one database
  round trip) through one batched lock acquisition.
* ``process-tcp`` / ``process-unix`` — the same configuration behind
  one ``ndb-server`` process, with the namenode's DAL speaking the RPC
  protocol over loopback TCP and over an AF_UNIX socket respectively.
  These price the deployment boundary: same engine, plus a real socket
  round trip per database batch.

The re-read resolver with per-key lock acquisition that the first cell
replaced (2 round trips per stat, 2713.9 ops/s at 8 threads against
3304.9, +21.8 %) is gone from the code; those numbers are kept under
``"history"`` in ``BENCH_hotpath.json`` and are not re-run.

Each cell also measures **db round trips per stat** directly from the
namenode's ``db_round_trips_total`` counter over a single-threaded
probe loop — the budget number the regression tests pin
(``tests/test_round_trip_budgets.py``).

The engine profile (simulated network/log-flush delay, cluster shape)
matches ``bench_engine_parallelism.py`` so the throughput cells are
comparable with ``BENCH_engine_parallelism.json``'s parallel column.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --json BENCH_hotpath.json

``--smoke`` shrinks op counts for CI; ``--skip-process`` drops the two
subprocess cells.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
from typing import Callable, Optional

from repro.hopsfs import HopsFSCluster
from repro.ndb import NDBConfig

THREADS = (1, 8)
FILES_PER_THREAD = 32
PROBE_OPS = 64          # single-threaded round-trip accounting loop

# engine profile: keep identical to bench_engine_parallelism so the
# 8-thread cells are comparable with BENCH_engine_parallelism.json
NETWORK_DELAY = 0.0003
LOG_FLUSH_DELAY = 0.0002
ENGINE_PROFILE = dict(num_datanodes=4, replication=2, lock_timeout=10.0,
                      network_delay=NETWORK_DELAY,
                      log_flush_delay=LOG_FLUSH_DELAY)


def _fs_path(tid: int, j: int) -> str:
    return f"/bench/t{tid}/f{j % FILES_PER_THREAD}"


def _populate(nn, n_threads: int) -> None:
    nn.mkdirs("/bench")
    for tid in range(n_threads):
        nn.mkdirs(f"/bench/t{tid}")
        for j in range(FILES_PER_THREAD):
            nn.create(_fs_path(tid, j), client=f"bench-{tid}")


def _measure_round_trips(nn) -> float:
    """Round trips per warm stat, straight off the namenode counter."""
    for j in range(FILES_PER_THREAD):  # warm the hint cache
        nn.get_file_info(_fs_path(0, j))
    counter = nn.metrics.counter("db_round_trips_total")
    before = counter.value
    for i in range(PROBE_OPS):
        nn.get_file_info(_fs_path(0, i))
    return (counter.value - before) / PROBE_OPS


def _stat_throughput(nn, n_threads: int, total_ops: int) -> float:
    """Achieved stats/s across ``n_threads`` client threads."""
    per_thread = total_ops // n_threads
    barrier = threading.Barrier(n_threads + 1)
    errors: list[Exception] = []

    def worker(tid: int) -> None:
        paths = [_fs_path(tid, j) for j in range(FILES_PER_THREAD)]
        for path in paths:  # warm pass (hint cache + partition map)
            nn.get_file_info(path)
        barrier.wait()
        try:
            for i in range(per_thread):
                nn.get_file_info(paths[i % FILES_PER_THREAD])
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


def _run_cell(make_driver: Callable[[], object],
              total_ops: int) -> tuple[dict[str, float], float]:
    """One deployment cell: build the stack, measure all thread counts."""
    driver = make_driver()
    fs = HopsFSCluster(num_namenodes=1, num_datanodes=3, driver=driver)
    nn = fs.namenodes[0]
    ops: dict[str, float] = {}
    try:
        _populate(nn, max(THREADS))
        round_trips = _measure_round_trips(nn)
        for n_threads in THREADS:
            ops[str(n_threads)] = round(
                _stat_throughput(nn, n_threads, total_ops), 1)
    finally:
        close = getattr(driver, "close", None)
        if close is not None:
            close()
    return ops, round_trips


def run_benchmark(total_ops: int, skip_process: bool = False) -> dict:
    from repro.ndb import NDBCluster

    ops: dict[str, dict[str, float]] = {}
    round_trips: dict[str, float] = {}

    ops["embedded-optimized"], round_trips["embedded-optimized"] = _run_cell(
        lambda: NDBCluster(NDBConfig(**ENGINE_PROFILE)), total_ops)

    if not skip_process:
        from repro.dal import RemoteDriver
        from repro.rpc.supervisor import Supervisor

        serve_options = dict(
            datanodes=ENGINE_PROFILE["num_datanodes"],
            replication=ENGINE_PROFILE["replication"],
            lock_timeout=ENGINE_PROFILE["lock_timeout"],
            network_delay=NETWORK_DELAY,
            log_flush_delay=LOG_FLUSH_DELAY)
        sock_dir = tempfile.mkdtemp(prefix="hotpath-")
        transports: dict[str, dict] = {
            "process-tcp": {},
            "process-unix": {"unix": os.path.join(sock_dir, "ndb.sock")},
        }
        for name, extra in transports.items():
            with Supervisor() as sup:
                handle = sup.spawn(name, **serve_options, **extra)

                def make_driver(handle=handle):
                    return RemoteDriver(handle.host, handle.port,
                                        unix_path=handle.unix_path,
                                        timeout=120.0)

                ops[name], round_trips[name] = _run_cell(
                    make_driver, total_ops)

    opt8 = ops["embedded-optimized"]["8"]
    return {
        "kind": "hotpath",
        "workload": {
            "op": "stat (get_file_info), warm hint cache",
            "total_ops": total_ops,
            "threads": list(THREADS),
            "files_per_thread": FILES_PER_THREAD,
            "network_delay_s": NETWORK_DELAY,
            "log_flush_delay_s": LOG_FLUSH_DELAY,
            "host_cpus": os.cpu_count(),
        },
        "cells": {
            "embedded-optimized": "engine + namenode defaults",
            "process-tcp": "optimized behind ndb-server over loopback TCP",
            "process-unix": "optimized behind ndb-server over AF_UNIX",
        },
        "ops_per_second": ops,
        "round_trips_per_stat": {k: round(v, 2)
                                 for k, v in round_trips.items()},
        # BENCH_engine_parallelism.json parallel@8t (mixed read/write kv
        # workload, same engine profile) — the pre-PR throughput anchor
        "engine_parallelism_parallel_8t_ref": 1455.2,
        "improvement_vs_parallel_ref_pct": round(
            (opt8 / 1455.2 - 1.0) * 100.0, 1),
        "aggregation": "single run per cell after a per-thread warm pass",
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total-ops", type=int, default=4000)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts (CI wiring check)")
    parser.add_argument("--skip-process", action="store_true",
                        help="embedded cells only")
    parser.add_argument("--json", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    total_ops = 160 if args.smoke else args.total_ops
    results = run_benchmark(total_ops, skip_process=args.skip_process)
    print(json.dumps(results, indent=2))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
