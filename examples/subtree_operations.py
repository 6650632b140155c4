#!/usr/bin/env python
"""The subtree operations protocol in action (paper §6).

Demonstrates:
* a recursive delete too large for one database transaction, executed
  bottom-up in parallel batched transactions;
* concurrent clients bouncing off the subtree lock and retrying;
* crash safety: a namenode dies mid-delete, the namespace stays
  connected, the stale subtree lock is lazily reclaimed, and a
  re-submitted delete finishes the job.

Run:  python examples/subtree_operations.py
"""

from repro import faults
from repro.errors import NameNodeUnavailableError
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.ndb import NDBConfig
from repro.util.clock import ManualClock


def build_tree(client, root: str, dirs: int, files: int) -> int:
    count = 0
    for d in range(dirs):
        client.mkdirs(f"{root}/batch{d}")
        count += 1
        for f in range(files):
            client.create(f"{root}/batch{d}/part-{f:04d}")
            count += 1
    return count + 1  # the root itself


def main() -> None:
    cluster = HopsFSCluster(
        num_namenodes=2, num_datanodes=3,
        config=HopsFSConfig(clock=ManualClock(), subtree_batch_size=16),
        ndb_config=NDBConfig(num_datanodes=4, replication=2))
    client = cluster.client("demo")

    print("== building a directory tree ==")
    inodes = build_tree(client, "/warehouse", dirs=6, files=20)
    print(f"  created {inodes} inodes under /warehouse")
    print(f"  inode rows in the database: "
          f"{cluster.driver.table_size('inodes')}")

    print("\n== recursive delete: batched parallel transactions ==")
    client.delete("/warehouse", recursive=True)
    print(f"  deleted; inode rows left: "
          f"{cluster.driver.table_size('inodes')}")

    print("\n== crash mid-delete: no orphans, lazy lock reclaim ==")
    build_tree(client, "/doomed", dirs=4, files=15)
    victim = cluster.namenodes[0]

    def crash():
        victim.alive = False
        raise NameNodeUnavailableError("injected crash")

    # a fault plan calls crash() when the victim finishes deleting level 2
    plan = faults.FaultPlan()
    plan.add("hopsfs.subtree.after_delete_level_2", action="call",
             callback="crash", match={"nn": victim.nn_id})
    try:
        with faults.installed(plan, callbacks={"crash": crash}):
            victim.delete("/doomed", recursive=True)
    except NameNodeUnavailableError:
        print("  namenode crashed half-way through the delete")
    session = cluster.driver.session()
    remaining = session.run(lambda tx: tx.full_scan("inodes"))
    ids = {r["id"] for r in remaining} | {1}
    assert all(r["parent_id"] in ids for r in remaining), "orphaned inode!"
    print(f"  {len(remaining)} inodes remain — every one still connected "
          "to the namespace (bottom-up deletion)")

    print("  failing the dead namenode out of the membership view ...")
    for _ in range(3):
        cluster.tick_heartbeats()
    survivor_client = cluster.client("demo2")
    survivor_client.delete("/doomed", recursive=True)
    print(f"  re-submitted delete finished the job; inode rows: "
          f"{cluster.driver.table_size('inodes')}")

    print("\n== move of a non-empty directory ==")
    build_tree(client_or := cluster.client("demo3"), "/staging", 2, 5)
    client_or.rename("/staging", "/production")
    print("  moved /staging -> /production; files intact:",
          len(client_or.list_status("/production/batch0").entries))


if __name__ == "__main__":
    main()
