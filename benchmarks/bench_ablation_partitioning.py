"""Ablation: the metadata partitioning scheme (paper §4.2, §4.2.1).

Three design choices are isolated:

1. *Parent-id partitioning* makes ``ls`` a one-shard partition-pruned
   scan; the naive alternative (hash each inode independently — what
   CalvinFS-style designs do) spreads a directory's children over every
   shard and turns listing into an all-shard operation.
2. *Pseudo-random partitioning of the top levels* removes the top-level
   hotspot: with ``random_partition_depth=0`` every top-level directory
   lands on ONE shard; with the default 2 they spread across shards.
3. *Distribution-aware transactions*: with the partition-key hint the
   file-metadata scans are local to the transaction coordinator.
"""

from benchmarks.conftest import print_table
from repro.ndb.stats import AccessStats
from tests.conftest import make_hopsfs


def op_stats(nn, fn) -> AccessStats:
    with nn.recording() as stats:
        fn()
    return stats


def _rows(fs, table, predicate):
    return fs.driver.session().run(
        lambda tx: tx.full_scan(table, predicate=predicate))


def test_parent_id_partitioning_vs_ls(capsys, benchmark):
    """ls of a 32-entry directory: one shard with the paper's scheme."""

    def run():
        fs = make_hopsfs(num_namenodes=1, ndb_nodes=8)
        client = fs.client("ab")
        for i in range(32):
            client.create(f"/a/b/dir/f{i:02d}")
        nn = fs.namenodes[0]
        nn.list_status("/a/b/dir")  # warm cache
        stats = op_stats(nn, lambda: nn.list_status("/a/b/dir"))
        [dir_row] = _rows(fs, "inodes", lambda r: r["name"] == "dir")
        children = _rows(fs, "inodes",
                         lambda r: r["parent_id"] == dir_row["id"])
        schema = fs.driver.schema("inodes")
        shards = {fs.driver.partition_of("inodes", schema.pk_of(r))
                  for r in children}
        return stats, children, shards

    stats, children, shards = benchmark.pedantic(run, rounds=1, iterations=1)
    # the warm ls carries its children's scan on the resolve's batched
    # read: the one event that read them names their shard
    listing = [e for e in stats.events if e.rows >= len(children)]
    print_table(
        "Ablation — ls of /a/b/dir (32 children) with parent-id partitioning",
        ["metric", "value"],
        [["round trips", str(stats.round_trips)],
         ["shards holding the children", str(len(shards))],
         ["expensive scans", str(stats.uses_expensive_scans)]],
        capsys)
    assert len(children) == 32 and len(shards) == 1
    assert len(listing) == 1 and shards <= set(listing[0].partitions)
    assert not stats.uses_expensive_scans


def test_top_level_spread_ablation(capsys, benchmark):
    """random_partition_depth 0 vs 2: shard spread of top-level dirs."""

    def spread(random_depth: int) -> int:
        fs = make_hopsfs(num_namenodes=1, ndb_nodes=8,
                         random_partition_depth=random_depth)
        client = fs.client("ab")
        for i in range(32):
            client.mkdirs(f"/top{i:02d}")
        cluster = fs.driver
        session = fs.driver.session()
        rows = session.run(lambda tx: tx.full_scan(
            "inodes", predicate=lambda r: r["parent_id"] == 1))
        return len({
            cluster.partition_of("inodes",
                                 (r["part_key"], r["parent_id"], r["name"]))
            for r in rows})

    spread0, spread2 = benchmark.pedantic(
        lambda: (spread(0), spread(2)), rounds=1, iterations=1)
    print_table(
        "Ablation — pseudo-random partitioning of top levels (§4.2.1)",
        ["random_partition_depth", "shards holding 32 top-level dirs"],
        [["0 (hotspot)", str(spread0)], ["2 (default)", str(spread2)]],
        capsys)
    assert spread0 == 1      # the hotspot: one shard takes every top dir
    assert spread2 >= 8      # the fix: spread over (at least half) the shards


def test_hotspot_throughput_model(profiles, capsys, benchmark):
    """The §7.2.1 consequence: the hot shard caps cluster throughput."""
    from benchmarks.conftest import DURATION, SCALE
    from repro.perfmodel.hopsfs_model import simulate_hopsfs

    def run():
        normal = simulate_hopsfs(num_namenodes=30, ndb_nodes=12,
                                 clients=8000, scale=SCALE,
                                 duration=DURATION,
                                 profiles=profiles).throughput
        hot = simulate_hopsfs(num_namenodes=30, ndb_nodes=12, clients=8000,
                              scale=SCALE, duration=DURATION, hotspot=True,
                              profiles=profiles).throughput
        return normal, hot

    normal, hot = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — hotspot workload vs uniform namespace (30 NNs)",
        ["workload", "ops/sec"],
        [["uniform", f"{normal / 1e3:.0f} K"],
         ["/shared-dir hotspot", f"{hot / 1e3:.0f} K"]],
        capsys)
    assert hot < normal / 2


def test_distribution_aware_reads_local(capsys, benchmark):
    """With the partition-key hint, file reads are coordinator-local."""

    def run():
        fs = make_hopsfs(num_namenodes=1, ndb_nodes=8)
        client = fs.client("ab")
        client.write_file("/p/q/blob", b"x", replication=2)
        nn = fs.namenodes[0]
        nn.get_block_locations("/p/q/blob")  # warm cache
        # eight reads: a coordinator picked round-robin over the eight
        # datanodes would be the file shard's primary at most once
        stats = op_stats(nn, lambda: [nn.get_block_locations("/p/q/blob")
                                      for _ in range(8)])
        [blob] = _rows(fs, "inodes", lambda r: r["name"] == "blob")
        shard = fs.driver.partition_for_values("blocks",
                                               {"inode_id": blob["id"]})
        return stats, shard, fs.driver.primary_table()[shard]

    stats, shard, primary = benchmark.pedantic(run, rounds=1, iterations=1)
    # each warm read carries the block and replica scans on its batched
    # read of the path; they run on the file's shard
    reads = [e for e in stats.events if "blocks" in e.table.split("+")]
    local = sum(1 for e in reads
                if shard in e.partitions and e.coordinator == primary)
    print_table(
        "Ablation — distribution-aware transaction placement",
        ["metric", "value"],
        [["reads carrying file-metadata scans", str(len(reads))],
         ["coordinated by the scans' shard primary", str(local)]],
        capsys)
    assert len(reads) == 8 and local == len(reads)
