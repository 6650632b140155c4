"""Figure 2a/2b: relative cost of database access types.

Unlike the simulated-time experiments, this benchmark measures REAL wall
time of the five access paths on the functional NDB engine: primary-key
read, batched primary-key read, partition-pruned index scan, all-shard
index scan, full table scan. The paper's claim (Fig. 2a) is the ordering
PK < batched < PPIS << IS < FTS; Fig. 2b is that HopsFS operations use
only the left side — asserted here via the access-statistics discipline.
"""

import pytest

from benchmarks.conftest import print_table
from repro.ndb import AccessKind, NDBCluster, NDBConfig, TableSchema

ROWS_PER_DIR = 16
NUM_DIRS = 64


@pytest.fixture(scope="module")
def cluster():
    cluster = NDBCluster(NDBConfig(num_datanodes=8, replication=2,
                                   partitions_per_node=2))
    cluster.create_table(TableSchema(
        name="inodes",
        columns=("parent_id", "name", "id", "size"),
        primary_key=("parent_id", "name"),
        partition_key=("parent_id",),
        indexes={"by_id": ("id",), "by_parent": ("parent_id",)},
    ))
    session = cluster.session()

    def fill(tx):
        rowid = 0
        for parent in range(NUM_DIRS):
            for i in range(ROWS_PER_DIR):
                rowid += 1
                tx.insert("inodes", {"parent_id": parent, "name": f"f{i}",
                                     "id": rowid, "size": i})

    session.run(fill)
    return cluster


def run_op(cluster, fn):
    with cluster.begin() as tx:
        fn(tx)


def test_fig2a_pk_read(cluster, benchmark):
    benchmark(run_op, cluster, lambda tx: tx.read("inodes", (3, "f1")))


def test_fig2a_batched_pk_read(cluster, benchmark):
    keys = [(d, "f1") for d in range(8)]
    benchmark(run_op, cluster, lambda tx: tx.read_batch("inodes", keys))


def test_fig2a_partition_pruned_scan(cluster, benchmark):
    benchmark(run_op, cluster, lambda tx: tx.ppis("inodes", {"parent_id": 3}))


def test_fig2a_index_scan(cluster, benchmark):
    benchmark(run_op, cluster,
              lambda tx: tx.index_scan("inodes", "by_parent", (3,)))


def test_fig2a_full_table_scan(cluster, benchmark):
    benchmark(run_op, cluster,
              lambda tx: tx.full_scan("inodes",
                                      predicate=lambda r: r["size"] == 1))


def test_fig2_shape_and_shards_touched(cluster, capsys, benchmark):
    """The cost ordering of Fig. 2a, by shards touched and rows scanned."""
    import time

    def timed(fn, repeat=300):
        t0 = time.perf_counter()
        for _ in range(repeat):
            with cluster.begin() as tx:
                fn(tx)
        return (time.perf_counter() - t0) / repeat

    def measure():
        return (
            timed(lambda tx: tx.read("inodes", (3, "f1"))),
            timed(lambda tx: tx.read_batch(
                "inodes", [(d, "f1") for d in range(8)])),
            timed(lambda tx: tx.ppis("inodes", {"parent_id": 3})),
            timed(lambda tx: tx.index_scan("inodes", "by_parent", (3,)),
                  repeat=60),
            timed(lambda tx: tx.full_scan("inodes"), repeat=20),
        )

    t_pk, t_bpk, t_ppis, t_is, t_fts = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    # shards touched per access type
    def shards(fn):
        tx = cluster.begin()
        fn(tx)
        event = tx.stats.events[-1]
        tx.abort()
        return len(set(event.partitions))

    rows = [
        ["PK read", f"{t_pk * 1e6:.1f}", shards(
            lambda tx: tx.read("inodes", (3, "f1")))],
        ["Batched PK (8)", f"{t_bpk * 1e6:.1f}", shards(
            lambda tx: tx.read_batch("inodes", [(d, "f1") for d in range(8)]))],
        ["PPIS", f"{t_ppis * 1e6:.1f}", shards(
            lambda tx: tx.ppis("inodes", {"parent_id": 3}))],
        ["Index scan", f"{t_is * 1e6:.1f}", shards(
            lambda tx: tx.index_scan("inodes", "by_parent", (3,)))],
        ["Full table scan", f"{t_fts * 1e6:.1f}", shards(
            lambda tx: tx.full_scan("inodes"))],
    ]
    print_table("Figure 2a — relative cost of database operations "
                "(functional engine, real time)",
                ["access type", "µs/op", "shards touched"], rows, capsys)
    # the paper's ordering: per-shard ops beat all-shard ops, and the
    # full scan is the most expensive access path
    assert t_pk < t_bpk * 2 and t_pk < t_ppis
    assert t_ppis < t_is < t_fts
    # PPIS touches one shard; IS and FTS touch all 32 partitions
    assert rows[2][2] == 1
    assert rows[3][2] == cluster.config.num_partitions
    assert rows[4][2] == cluster.config.num_partitions


def test_fig2b_hopsfs_avoids_expensive_ops(capsys, benchmark):
    """Fig. 2b: the common-path operations use only PK/BPK/PPIS."""
    from repro.perfmodel.profiles import record_hopsfs_profiles

    profiles = benchmark.pedantic(record_hopsfs_profiles, rounds=1,
                                  iterations=1)
    rows = []
    for op in ("stat", "read", "ls", "create", "rename", "delete"):
        kinds = {t.kind for t in profiles[op].trips}
        rows.append([op, ", ".join(sorted(kinds))])
        assert AccessKind.FULL_SCAN.value not in kinds, op
        assert AccessKind.INDEX_SCAN.value not in kinds, op
    print_table("Figure 2b — access kinds used by common operations",
                ["operation", "kinds"], rows, capsys)
