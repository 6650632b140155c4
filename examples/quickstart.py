#!/usr/bin/env python
"""Quickstart: a HopsFS cluster in a few lines.

Starts an in-process HopsFS deployment (2 stateless namenodes, 3
datanodes, a 4-node NDB cluster), then walks through the everyday file
system operations — all served from metadata stored fully normalized in
the database.

Run:  python examples/quickstart.py
"""

from repro.hopsfs import HopsFSCluster
from repro.ndb import NDBConfig


def main() -> None:
    cluster = HopsFSCluster(
        num_namenodes=2,
        num_datanodes=3,
        ndb_config=NDBConfig(num_datanodes=4, replication=2),
    )
    client = cluster.client("alice")

    print("== basic namespace operations ==")
    client.mkdirs("/user/alice/projects")
    client.write_file("/user/alice/projects/report.txt",
                      b"HopsFS stores this file's metadata in NewSQL.")
    print("created:", client.stat("/user/alice/projects/report.txt"))
    print("read back:",
          client.read_file("/user/alice/projects/report.txt").decode())

    print("\n== listing and stat ==")
    for entry in client.list_status("/user/alice/projects").entries:
        kind = "dir " if entry.is_dir else "file"
        print(f"  {kind} {entry.path} ({entry.size} bytes, "
              f"replication={entry.replication})")

    print("\n== rename, permissions, quotas ==")
    client.rename("/user/alice/projects/report.txt",
                  "/user/alice/projects/report-final.txt")
    client.set_permission("/user/alice/projects/report-final.txt", 0o600)
    client.set_quota("/user/alice", ns_quota=1000, ds_quota=None)
    summary = client.content_summary("/user/alice")
    print(f"  /user/alice: {summary.file_count} files, "
          f"{summary.directory_count} dirs, ns quota {summary.ns_quota}")

    print("\n== the metadata is just database rows ==")
    session = cluster.driver.session()
    inodes = session.run(lambda tx: tx.full_scan("inodes"))
    print(f"  {len(inodes)} inode rows across "
          f"{cluster.driver.config.num_partitions} database "
          "partitions")

    print("\n== namenodes are stateless: kill one, nothing is lost ==")
    victim = cluster.namenodes[0]
    cluster.kill_namenode(victim)
    print("  killed namenode", victim.nn_id)
    print("  client still works:",
          client.list_status("/user/alice/projects").names())

    print("\n== recursive delete uses the subtree protocol ==")
    client.delete("/user/alice", recursive=True)
    print("  /user/alice exists:", client.exists("/user/alice"))


if __name__ == "__main__":
    main()
