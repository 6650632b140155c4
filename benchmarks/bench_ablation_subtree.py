"""Ablation: subtree-operation batching and parallelism (paper §6.1).

Phase 3 of the subtree protocol "breaks the file system operation down
into smaller operations that execute in parallel; for improved
performance, large batches of inodes are manipulated in each
transaction". This ablation measures the real implementation deleting
the same directory tree with different batch sizes and worker counts,
plus the pluggable-engine comparison (NDB driver vs the single-node
memory driver) the DAL makes possible (§8).

The worker-count ablation runs on an engine with a simulated round trip
(``NETWORK_DELAY``, 0.3 ms): the namenode runs a level's units on
worker threads only when the DAL's round trips wait, so on a zero-delay
engine every worker count would run the same inline code.
"""

import time

from benchmarks.conftest import QUICK, print_table
from repro.dal import MemoryDriver
from tests.conftest import make_hopsfs

FILES = 80 if QUICK else 200
DIRS = 8
NETWORK_DELAY = 0.0003  # 0.3 ms simulated round trip


def build_and_delete(batch_size: int, parallelism: int,
                     driver=None, network_delay: float = 0.0) -> float:
    kwargs = dict(num_namenodes=1, subtree_batch_size=batch_size,
                  subtree_parallelism=parallelism,
                  network_delay=network_delay)
    fs = make_hopsfs(**kwargs)
    if driver is not None:
        # swap the engine: proves the namenode code is engine agnostic
        from repro.hopsfs import HopsFSConfig
        from repro.hopsfs.cluster import HopsFSCluster
        from repro.util.clock import ManualClock

        fs = HopsFSCluster(num_namenodes=1, num_datanodes=3,
                           config=HopsFSConfig(
                               clock=ManualClock(),
                               subtree_batch_size=batch_size,
                               subtree_parallelism=parallelism),
                           driver=driver)
    client = fs.client("ablate")
    per_dir = FILES // DIRS
    for d in range(DIRS):
        for f in range(per_dir):
            client.create(f"/victim/d{d}/f{f}")
    t0 = time.perf_counter()
    client.delete("/victim", recursive=True)
    return time.perf_counter() - t0


def test_batch_size_ablation(capsys, benchmark):
    """Tiny batches pay per-transaction overhead on every handful of
    inodes; the paper's large batches amortize it."""

    def run():
        return {batch: build_and_delete(batch, parallelism=2)
                for batch in (1, 8, 64)}

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Ablation — subtree delete of {FILES + DIRS + 1} inodes vs batch size",
        ["batch size", "ms"],
        [[str(b), f"{t * 1000:.0f}"] for b, t in sorted(times.items())],
        capsys)
    assert min(times[8], times[64]) < times[1]  # batching pays


def test_parallelism_ablation(capsys, benchmark):
    """Where the pool runs — round trips that wait — its workers overlap
    the waits of a level's transactions."""

    def run():
        return {workers: build_and_delete(16, parallelism=workers,
                                          network_delay=NETWORK_DELAY)
                for workers in (1, 4)}

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — subtree delete vs phase-2/3 worker threads "
        f"({NETWORK_DELAY * 1000:.1f} ms round trip)",
        ["workers", "ms"],
        [[str(w), f"{t * 1000:.0f}"] for w, t in sorted(times.items())],
        capsys)
    # parallel workers must not be slower than serial by more than noise
    assert times[4] < times[1] * 1.5


def test_pluggable_engine_ablation(capsys, benchmark):
    """§8: the DAL makes the storage engine pluggable. The single-node
    memory engine completes the same workload (correctness) — what it
    cannot do is scale, which the distributed benchmarks show."""

    def run():
        ndb_time = build_and_delete(16, 2)
        memory = MemoryDriver()
        memory_time = build_and_delete(16, 2, driver=memory)
        return ndb_time, memory_time

    ndb_time, memory_time = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — same namenode code on two storage engines",
        ["engine", "subtree delete (ms)"],
        [["ndb (4 nodes, R=2)", f"{ndb_time * 1000:.0f}"],
         ["memory (single node)", f"{memory_time * 1000:.0f}"]],
        capsys)
    # both complete; this is a correctness/pluggability check
    assert ndb_time > 0 and memory_time > 0
