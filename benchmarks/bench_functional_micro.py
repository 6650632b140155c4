"""Functional micro-benchmarks: real per-operation cost of both stacks.

These complement the simulated-scale figures with honest wall-clock
numbers from the Python implementations: HopsFS pays for transactions,
row locks and (simulated) partitioned storage on every operation, while
the HDFS baseline works on an in-heap dict tree — the same asymmetry the
paper's Figure 9 shows for single-operation latency. They also guard
against performance regressions in the functional engine itself.
"""

import pytest

from repro.hdfs import HDFSCluster
from repro.util.clock import ManualClock
from tests.conftest import make_hopsfs


@pytest.fixture(scope="module")
def hopsfs():
    fs = make_hopsfs(num_namenodes=1)
    client = fs.client("bench")
    client.mkdirs("/bench/dir")
    for i in range(16):
        client.create(f"/bench/dir/f{i:02d}")
    nn = fs.namenodes[0]
    nn.get_file_info("/bench/dir/f00")  # warm the hint cache
    return fs, nn


@pytest.fixture(scope="module")
def hdfs():
    cluster = HDFSCluster(num_datanodes=3, clock=ManualClock())
    client = cluster.client("bench")
    client.mkdirs("/bench/dir")
    for i in range(16):
        client.create(f"/bench/dir/f{i:02d}")
    return cluster


class TestHopsFSMicro:
    def test_stat(self, hopsfs, benchmark):
        _fs, nn = hopsfs
        benchmark(nn.get_file_info, "/bench/dir/f00")

    def test_ls(self, hopsfs, benchmark):
        _fs, nn = hopsfs
        benchmark(nn.list_status, "/bench/dir")

    def test_read(self, hopsfs, benchmark):
        _fs, nn = hopsfs
        benchmark(nn.get_block_locations, "/bench/dir/f01")

    def test_create_delete(self, hopsfs, benchmark):
        _fs, nn = hopsfs
        counter = iter(range(10_000_000))

        def op():
            path = f"/bench/dir/new{next(counter)}"
            nn.create(path, client="bench")
            nn.delete(path)

        benchmark(op)

    def test_rename(self, hopsfs, benchmark):
        _fs, nn = hopsfs
        nn.create("/bench/dir/mv0", client="bench")
        counter = iter(range(1, 10_000_000))

        def op():
            i = next(counter)
            nn.rename(f"/bench/dir/mv{i - 1}", f"/bench/dir/mv{i}")

        benchmark(op)


class TestHDFSMicro:
    def test_stat(self, hdfs, benchmark):
        benchmark(hdfs.active.get_file_info, "/bench/dir/f00")

    def test_ls(self, hdfs, benchmark):
        benchmark(hdfs.active.list_status, "/bench/dir")

    def test_create_delete(self, hdfs, benchmark):
        counter = iter(range(10_000_000))

        def op():
            path = f"/bench/dir/new{next(counter)}"
            hdfs.active.create(path, client="bench")
            hdfs.active.delete(path)

        benchmark(op)


class TestTracingOverhead:
    """Cost of tracing v2 at different sampling rates on a hot read path.

    ``sample_every=0`` is the floor (registry-only binding, no spans),
    ``1`` traces every op (full span trees + shard-attributed events),
    ``64`` is a production-style rate. Guards the claim that sampling
    bounds tracing overhead on hot paths.
    """

    @pytest.mark.parametrize("sample_every", [0, 1, 64])
    def test_stat_sampled(self, benchmark, sample_every):
        fs = make_hopsfs(num_namenodes=1, trace_sample_every=sample_every)
        nn = fs.namenodes[0]
        nn.mkdirs("/t/dir")
        nn.create("/t/dir/f")
        nn.get_file_info("/t/dir/f")  # warm the hint cache
        benchmark(nn.get_file_info, "/t/dir/f")


class TestDistributedTracingOverhead:
    """The same sampling sweep with the DAL behind a real socket: wire
    trace propagation (request envelope, server-side spans, response
    payload, client-side grafting) only costs on *sampled* requests."""

    @pytest.mark.parametrize("sample_every", [0, 1, 64])
    def test_stat_sampled_remote(self, benchmark, sample_every):
        fs, driver, server = _make_bench_fs("process", sample_every)
        try:
            nn = fs.namenodes[0]
            nn.mkdirs("/t/dir")
            nn.create("/t/dir/f")
            nn.get_file_info("/t/dir/f")  # warm the hint cache
            benchmark(nn.get_file_info, "/t/dir/f")
        finally:
            driver.close()
            server.stop()


def _make_bench_fs(deploy: str, sample_every: int = 1):
    """A 1-namenode cluster for overhead measurement.

    ``embedded`` runs the engine in-process (the PR-5 cell);
    ``process`` puts the DAL behind the RPC protocol on a real TCP
    socket — an in-thread :class:`NDBServer`, i.e. the process
    deployment minus the subprocess spawn, so ``time.process_time``
    still charges both client and server work to one process and the
    A/B/A differencing stays meaningful.
    """
    if deploy == "embedded":
        return (make_hopsfs(num_namenodes=1,
                            trace_sample_every=sample_every), None, None)
    from repro.dal import RemoteDriver
    from repro.hopsfs import HopsFSCluster, HopsFSConfig
    from repro.ndb import NDBConfig
    from repro.rpc import NDBServer

    server = NDBServer(config=NDBConfig(num_datanodes=4, replication=2,
                                        lock_timeout=1.0))
    server.start()
    driver = RemoteDriver(server.host, server.port, timeout=30.0)
    fs = HopsFSCluster(
        num_namenodes=1, num_datanodes=3,
        config=HopsFSConfig(clock=ManualClock(),
                            trace_sample_every=sample_every),
        driver=driver)
    return fs, driver, server


def measure_tracing_overhead(repeat: int = 200, rounds: int = 60,
                             deploy: str = "embedded") -> dict:
    """Standalone measurement backing ``BENCH_tracing_overhead.json``.

    Estimating a ~10% effect on a shared/virtualised box needs two noise
    sources controlled:

    * **Allocator/layout bias** — separately-built namenodes end up with
      different heap layouts, which skews per-instance cost by more than
      the effect under test and does *not* average out over rounds. All
      sampling rates are therefore measured against ONE namenode,
      flipping ``tracer.sample_every`` between slices, so the object
      graph under measurement is literally identical.
    * **CPU-speed drift** — even process CPU time swings ±20% over
      seconds under virtualised frequency scaling, so absolute best-of
      minima from different moments are not comparable. Each round
      measures an A/B/A sandwich (baseline, traced, baseline) of short
      slices; the per-round difference ``B - (A1+A2)/2`` cancels any
      drift that is smooth across the ~3-slice window, and the median
      over rounds rejects the slices where it is not.
    """
    import gc
    import statistics
    import time

    fs, driver, server = _make_bench_fs(deploy)
    try:
        nn = fs.namenodes[0]
        nn.mkdirs("/t/dir")
        nn.create("/t/dir/f")
        tracer = nn.tracer
        rates = (0, 1, 64)
        for sample_every in rates:  # warm hint cache + every sampling path
            tracer.sample_every = sample_every
            for _ in range(400):
                nn.get_file_info("/t/dir/f")

        def timed_slice(sample_every: int) -> float:
            tracer.sample_every = sample_every
            t0 = time.process_time()
            for _ in range(repeat):
                nn.get_file_info("/t/dir/f")
            return (time.process_time() - t0) / repeat * 1e6

        deltas = {se: [] for se in rates if se != 0}
        bases = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(rounds):
                for sample_every in deltas:
                    a1 = timed_slice(0)
                    b = timed_slice(sample_every)
                    a2 = timed_slice(0)
                    deltas[sample_every].append(b - (a1 + a2) / 2)
                    bases.append((a1 + a2) / 2)
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        if driver is not None:
            driver.close()
        if server is not None:
            server.stop()
    base = statistics.median(bases)
    delta_full = statistics.median(deltas[1])
    delta_64 = statistics.median(deltas[64])
    results = {"0": round(base, 2),
               "1": round(base + delta_full, 2),
               "64": round(base + delta_64, 2)}
    return {
        "kind": "tracing",
        "workload": {"op": "stat (warm hint cache)", "repeat": repeat,
                     "rounds": rounds, "deploy": deploy,
                     "method": "median paired A/B/A CPU-time difference, "
                               "single shared namenode"},
        "us_per_op_by_sample_every": results,
        "overhead_pct_full_tracing": round(delta_full / base * 100.0, 1),
        "overhead_pct_sampled_64": round(delta_64 / base * 100.0, 1),
    }


def measure_distributed_tracing(repeat: int = 200,
                                rounds: int = 60) -> dict:
    """Wire-propagation overhead backing ``BENCH_distributed_tracing.json``.

    Same A/B/A methodology as :func:`measure_tracing_overhead`, but with
    the DAL behind the RPC socket, so the deltas price the *whole*
    distributed-tracing path: trace envelope on the request, per-request
    server trace + span shipping on the response, clock alignment and
    grafting on the client. Unsampled requests carry no envelope, so the
    1-in-64 row is the bound that matters for production sampling.
    """
    report = measure_tracing_overhead(repeat, rounds, deploy="process")
    return {
        "kind": "disttracing",
        "workload": report["workload"],
        "us_per_op_by_sample_every": report["us_per_op_by_sample_every"],
        "wire_overhead_pct_full_tracing":
            report["overhead_pct_full_tracing"],
        "wire_overhead_pct_sampled_64":
            report["overhead_pct_sampled_64"],
    }


def main() -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Measure tracing overhead at sample_every 0/1/64")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="output path (defaults to "
                             "BENCH_tracing_overhead.json, or "
                             "BENCH_distributed_tracing.json with "
                             "--deploy process)")
    parser.add_argument("--deploy", choices=("embedded", "process"),
                        default="embedded",
                        help="where the engine lives: in-process, or "
                             "behind the RPC socket (wire propagation)")
    parser.add_argument("--repeat", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=60)
    args = parser.parse_args()
    if args.deploy == "process":
        report = measure_distributed_tracing(args.repeat, args.rounds)
        full = report["wire_overhead_pct_full_tracing"]
        sampled = report["wire_overhead_pct_sampled_64"]
        path = args.json or "BENCH_distributed_tracing.json"
    else:
        report = measure_tracing_overhead(args.repeat, args.rounds)
        full = report["overhead_pct_full_tracing"]
        sampled = report["overhead_pct_sampled_64"]
        path = args.json or "BENCH_tracing_overhead.json"
    for rate, us in report["us_per_op_by_sample_every"].items():
        print(f"sample_every={rate:>2}: {us:8.2f} µs/op")
    print(f"[{args.deploy}] full-tracing overhead: {full:+.1f}%  "
          f"(1-in-64: {sampled:+.1f}%)")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def test_relative_cost_shape(hopsfs, hdfs, capsys, benchmark):
    """HDFS's in-heap reads are cheaper per call than HopsFS's
    transactional reads — Figure 9's asymmetry, measured for real."""
    import time

    _fs, nn = hopsfs

    def timed(fn, repeat=400):
        t0 = time.perf_counter()
        for _ in range(repeat):
            fn()
        return (time.perf_counter() - t0) / repeat

    def measure():
        return (timed(lambda: nn.get_file_info("/bench/dir/f00")),
                timed(lambda: hdfs.active.get_file_info("/bench/dir/f00")))

    hopsfs_stat, hdfs_stat = benchmark.pedantic(measure, rounds=1,
                                                iterations=1)
    from benchmarks.conftest import print_table

    print_table("Functional micro — stat cost (real µs/op)",
                ["system", "µs"],
                [["HopsFS (transactional)", f"{hopsfs_stat * 1e6:.0f}"],
                 ["HDFS (in-heap)", f"{hdfs_stat * 1e6:.0f}"]], capsys)
    assert hdfs_stat < hopsfs_stat


if __name__ == "__main__":
    raise SystemExit(main())
