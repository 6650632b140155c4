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

