"""Figure 10: throughput under namenode failures (§7.6.1).

The paper runs both systems at 50 % load and periodically kills
namenodes. HDFS: every failover produces 8–10 s in which *no* metadata
operation completes, then service resumes. HopsFS: killing namenodes
(round-robin, sticky clients, no new clients joining) never interrupts
service; throughput steps down gradually as surviving namenodes absorb
the clients.

This file reproduces the figure on the discrete-event performance
model; ``bench_failover_chaos.py`` measures the same failure modes on
the real implementation via the fault-injection subsystem and records
the observed unavailability windows in ``BENCH_failover_chaos.json``.
"""

import pytest

from benchmarks.conftest import print_table
from repro.perfmodel.hdfs_model import simulate_hdfs
from repro.perfmodel.hopsfs_model import simulate_hopsfs

SIM_SECONDS = 35.0
KILLS = (8.0, 16.0, 24.0)
HOPSFS_SCALE = 0.05


@pytest.fixture(scope="module")
def figure10(profiles):
    # modest load keeps the event count tractable: the figure needs the
    # downtime/degradation *shape*, not peak throughput
    hopsfs = simulate_hopsfs(
        num_namenodes=8, ndb_nodes=12, clients=700, scale=HOPSFS_SCALE,
        duration=SIM_SECONDS, warmup=2.0, profiles=profiles,
        kill_times=tuple(k + 2.0 for k in KILLS))
    hdfs = simulate_hdfs(
        clients=150, duration=SIM_SECONDS, warmup=2.0,
        kill_times=(KILLS[0] + 2.0,))
    return hopsfs, hdfs


def test_fig10_hdfs_downtime(figure10, capsys, benchmark):
    hopsfs, hdfs = benchmark.pedantic(lambda: figure10, rounds=1,
                                      iterations=1)
    series = hdfs.completions
    kill_at = KILLS[0] + 2.0
    # downtime window: zero completions for at least 8 consecutive seconds
    zero_seconds = [t for t in range(int(kill_at), int(kill_at) + 12)
                    if series.get(t, 0) == 0]
    before = series.get(int(kill_at) - 3, 0)
    after = max(series.get(int(kill_at) + delta, 0)
                for delta in (12, 13, 14))
    print_table(
        "Figure 10 — HDFS failover (paper: 8-10 s of downtime)",
        ["metric", "value"],
        [["throughput before kill", f"{before:.0f} ops/s"],
         ["seconds with zero completions", str(len(zero_seconds))],
         ["throughput after recovery", f"{after:.0f} ops/s"]],
        capsys)
    assert len(zero_seconds) >= 7
    assert after > before * 0.5


def test_fig10_hopsfs_no_downtime(figure10, capsys, benchmark):
    hopsfs, _hdfs = benchmark.pedantic(lambda: figure10, rounds=1,
                                       iterations=1)
    series = hopsfs.completions
    window = [series.get(t, 0) for t in range(3, int(SIM_SECONDS))]
    start = sum(window[0:5]) / 5
    end = sum(window[-5:]) / 5
    print_table(
        "Figure 10 — HopsFS under rolling namenode kills "
        "(paper: no downtime, gradual decline with sticky clients)",
        ["metric", "value"],
        [["throughput at start",
          f"{start:.0f} ops/s (raw, scale {HOPSFS_SCALE})"],
         ["throughput at end (5/8 NNs)", f"{end:.0f} ops/s"],
         ["min 1-second bucket", f"{min(window):.0f} ops/s"]],
        capsys)
    # never a zero-throughput second: no downtime (§7.6.1)
    assert min(window) > 0.0
    # capacity steps down but service continues
    assert end < start
    assert end > 0.4 * start


def test_fig10_clients_survive_every_kill(figure10, benchmark):
    hopsfs, _ = benchmark.pedantic(lambda: figure10, rounds=1, iterations=1)
    series = hopsfs.completions
    for kill in KILLS:
        for delta in (1, 2, 3):
            assert series.get(int(kill) + 2 + delta, 0) > 0
