"""Ablation: the inode hint cache (paper §5.1).

The design claim: caching the primary keys of path components turns a
depth-N path resolution from N sequential round trips into ONE batched
read. Measured on the functional implementation by resolving depth-7
paths (the Spotify mean) with a cold and a warm cache, counting actual
database round trips and wall time.
"""

import time

import pytest

from benchmarks.conftest import print_table
from repro.ndb.stats import AccessKind, AccessStats
from tests.conftest import make_hopsfs

DEPTH = 7
PATH = "/" + "/".join(f"level{i}" for i in range(1, DEPTH)) + "/leaf.txt"


@pytest.fixture(scope="module")
def warm_cluster():
    fs = make_hopsfs(num_namenodes=1)
    client = fs.client("ablate")
    client.write_file(PATH, b"")
    return fs


def _resolve_stats(nn, cold: bool) -> AccessStats:
    if cold:
        nn.hint_cache.clear()
    with nn.recording() as stats:
        nn.get_file_info(PATH)
    return stats


def test_hint_cache_round_trips(warm_cluster, capsys, benchmark):
    nn = warm_cluster.namenodes[0]

    def measure():
        cold = _resolve_stats(nn, cold=True)
        warm = _resolve_stats(nn, cold=False)
        return cold, warm

    cold, warm = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation — inode hint cache (depth-7 stat)",
        ["cache", "round trips", "batched reads", "pk reads"],
        [["cold", str(cold.round_trips),
          str(cold.count(AccessKind.BATCH_PK)),
          str(cold.count(AccessKind.PK))],
         ["warm", str(warm.round_trips),
          str(warm.count(AccessKind.BATCH_PK)),
          str(warm.count(AccessKind.PK))]],
        capsys)
    # §5.1: N round trips -> 1 batched read, which also takes the last
    # component's shared lock and carries the commit
    assert cold.round_trips >= DEPTH
    assert warm.round_trips == 1
    assert warm.count(AccessKind.BATCH_PK) == 1


def test_hint_cache_wall_time(warm_cluster, capsys, benchmark):
    nn = warm_cluster.namenodes[0]

    def measure():
        repeats = 150
        t0 = time.perf_counter()
        for _ in range(repeats):
            nn.hint_cache.clear()
            nn.get_file_info(PATH)
        cold = (time.perf_counter() - t0) / repeats
        nn.get_file_info(PATH)  # warm it
        t0 = time.perf_counter()
        for _ in range(repeats):
            nn.get_file_info(PATH)
        warm = (time.perf_counter() - t0) / repeats
        return cold, warm

    cold, warm = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table("Ablation — hint cache, wall time per depth-7 stat",
                ["cache", "µs"],
                [["cold", f"{cold * 1e6:.0f}"],
                 ["warm", f"{warm * 1e6:.0f}"]], capsys)
    assert warm < cold


def test_hint_cache_hit_rate_under_workload(warm_cluster, benchmark):
    """Sticky clients + heavy-tailed access keep the hit rate high
    (§5.1.1)."""
    fs = warm_cluster
    client = fs.client("hot")
    for i in range(10):
        client.write_file(f"/hot/dir/f{i}", b"")
    nn = fs.namenodes[0]
    nn.hint_cache.clear()  # also resets the hit/miss counters

    def run():
        import random

        rng = random.Random(3)
        for _ in range(400):
            client.stat(f"/hot/dir/f{rng.randrange(10)}")
        return nn.hint_cache.hit_rate

    hit_rate = benchmark.pedantic(run, rounds=1, iterations=1)
    assert hit_rate > 0.9
