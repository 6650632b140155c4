#!/usr/bin/env python
"""Metadata as data: export, analytics and free-text search (paper §9).

Because HopsFS keeps its metadata in a commodity database, the namespace
can be replicated to external systems and analysed online without
touching the serving path. This example:

* runs a change-capture export off the database commit log,
* answers ad-hoc analytics questions (largest files, usage per owner),
* builds a free-text index over the namespace and searches it,
* shows incremental sync picking up live changes.

Run:  python examples/metadata_analytics.py
"""

from repro.analytics import MetadataExporter, NamespaceSearchIndex
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.ndb import NDBConfig
from repro.util.clock import ManualClock


def main() -> None:
    cluster = HopsFSCluster(
        num_namenodes=1, num_datanodes=3,
        config=HopsFSConfig(clock=ManualClock()),
        ndb_config=NDBConfig(num_datanodes=4, replication=2))
    client = cluster.client("etl")

    datasets = {
        "/warehouse/sales/2025/q1.parquet": (b"s" * 400, "finance"),
        "/warehouse/sales/2025/q2.parquet": (b"s" * 350, "finance"),
        "/warehouse/genomics/reads/sample-001.bam": (b"g" * 900, "research"),
        "/warehouse/genomics/reads/sample-002.bam": (b"g" * 870, "research"),
        "/models/churn/model-v3.bin": (b"m" * 650, "ml-team"),
        "/home/alice/notes.txt": (b"hello", "alice"),
    }
    for path, (data, owner) in datasets.items():
        client.write_file(path, data)
        client.set_owner(path, owner, owner)

    print("== change-capture export from the commit log ==")
    exporter = MetadataExporter(cluster.driver)
    applied = exporter.sync()
    replica = exporter.replica
    print(f"  applied {applied} commit-log records; replica holds "
          f"{len(replica.inodes)} inodes")

    print("\n== ad-hoc analytics on the replica ==")
    print(f"  total bytes under management: {replica.total_size()}")
    print("  largest files:")
    for path, size in replica.largest_files(3):
        print(f"    {size:>5} B  {path}")
    print("  usage by owner:")
    for owner, used in sorted(replica.usage_by_owner().items(),
                              key=lambda kv: -kv[1]):
        print(f"    {owner:<10} {used:>5} B")

    print("\n== free-text search over the namespace ==")
    index = NamespaceSearchIndex()
    index.index_replica(replica)
    for query in ("genomics", "sales 2025", "churn", "alice"):
        print(f"  search({query!r}):")
        for hit in index.search(query, limit=3):
            print(f"    {hit}")

    print("\n== incremental sync picks up live changes ==")
    client.rename("/models/churn/model-v3.bin",
                  "/models/churn/model-v4.bin")
    client.delete("/home/alice/notes.txt")
    exporter.sync()
    index.index_replica(replica)
    print("  search('model'):", index.search("model"))
    print("  search('notes'):", index.search("notes"))


if __name__ == "__main__":
    main()
