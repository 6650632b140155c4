"""Figure 9: 99th-percentile latency of common operations at 50 % load.

Paper values (99th percentile): HopsFS — touch/create ≈100.8 ms, read
≈8.6 ms, ls dir ≈11.4 ms, stat dir ≈8.5 ms; HDFS — create ≈101.8 ms,
read ≈1.5 ms, ls ≈0.9 ms, stat ≈1.5 ms.

Shape: creates are ~100 ms on BOTH systems (the client-side pipeline and
journal/commit waits dominate); for the read-only ops HDFS is a few
single-digit milliseconds faster (in-heap metadata vs database round
trips), but HopsFS stays within ~10 ms — the trade the paper calls
acceptable.
"""

import pytest

from benchmarks.conftest import DURATION, SCALE, print_table
from repro.perfmodel.hdfs_model import simulate_hdfs
from repro.perfmodel.hopsfs_model import simulate_hopsfs
from repro.util.stats import percentile

#: client counts chosen to put each system at ~50 % of its saturation
#: throughput (closed-loop clients have no think time, so the counts are
#: concurrency levels, much smaller than the paper's client processes)
HOPSFS_CLIENTS_50 = 2600
HDFS_CLIENTS_50 = 25


@pytest.fixture(scope="module")
def figure9(profiles):
    hopsfs = simulate_hopsfs(num_namenodes=60, ndb_nodes=12,
                             clients=HOPSFS_CLIENTS_50, scale=SCALE,
                             duration=max(DURATION, 0.4),
                             profiles=profiles)
    hdfs = simulate_hdfs(clients=HDFS_CLIENTS_50,
                         duration=max(DURATION, 0.4))
    return hopsfs, hdfs


PAPER_P99 = {  # op -> (hopsfs_ms, hdfs_ms)
    "create": (100.8, 101.8),
    "read": (8.6, 1.5),
    "ls": (11.4, 0.9),
    "stat": (8.5, 1.5),
}


def test_fig9(figure9, capsys, benchmark):
    hopsfs, hdfs = benchmark.pedantic(lambda: figure9, rounds=1, iterations=1)
    rows = []
    for op, (paper_h, paper_d) in PAPER_P99.items():
        h = hopsfs.p99_latency(op) * 1000
        d = hdfs.p99_latency(op) * 1000
        rows.append([op, f"{h:.1f}", f"{paper_h}", f"{d:.1f}", f"{paper_d}"])
    print_table(
        "Figure 9 — 99th-percentile latency (ms) at 50% load",
        ["operation", "HopsFS", "(paper)", "HDFS", "(paper)"], rows, capsys)

    # creates: ~100 ms on both systems (pipeline/journal dominated)
    assert hopsfs.p99_latency("create") == pytest.approx(0.1008, rel=0.5)
    assert hdfs.p99_latency("create") == pytest.approx(0.1018, rel=0.5)
    # read-only ops: HDFS faster, HopsFS in single/low double digits of ms
    for op in ("read", "ls", "stat"):
        assert hdfs.p99_latency(op) < hopsfs.p99_latency(op), op
        assert hopsfs.p99_latency(op) < 0.030, op
        assert hdfs.p99_latency(op) < 0.010, op


def test_fig9_median_vs_tail(figure9, benchmark):
    """Percentile sanity: p50 < p99 for every op on both systems."""
    hopsfs, hdfs = benchmark.pedantic(lambda: figure9, rounds=1, iterations=1)
    for result in (hopsfs, hdfs):
        for op, latencies in result.latencies.items():
            if len(latencies) < 50:
                continue
            ordered = sorted(latencies)
            assert percentile(ordered, 50) < percentile(ordered, 99), op
