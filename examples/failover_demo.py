#!/usr/bin/env python
"""Failover behaviour, HopsFS vs HDFS (paper §7.6, Figure 10).

HopsFS: namenodes are stateless, so killing one loses nothing — clients
transparently re-execute on the survivors with zero downtime. The
database itself survives NDB datanode failures inside node groups.

HDFS: killing the active namenode stops the metadata service until the
failover coordinator's lease expires and the standby promotes.

Run:  python examples/failover_demo.py
"""

from repro.hdfs import HDFSCluster
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.ndb import NDBConfig
from repro.util.clock import ManualClock


def hopsfs_demo() -> None:
    print("== HopsFS: no downtime during failover ==")
    cluster = HopsFSCluster(
        num_namenodes=3, num_datanodes=3,
        config=HopsFSConfig(clock=ManualClock()),
        ndb_config=NDBConfig(num_datanodes=4, replication=2))
    client = cluster.client("user")
    client.write_file("/critical/data.bin", b"precious bytes")

    for round_no in range(3):
        victim = cluster.live_namenodes()[0]
        cluster.kill_namenode(victim)
        print(f"  round {round_no}: killed namenode {victim.nn_id} "
              f"({len(cluster.live_namenodes())} left)")
        # the client's next operation silently fails over
        assert client.read_file("/critical/data.bin") == b"precious bytes"
        client.create(f"/critical/written-after-kill-{round_no}")
        cluster.restart_namenode()
        cluster.tick_heartbeats()
    print("  every operation succeeded; files written during failovers:",
          len(client.list_status("/critical").entries) - 1)

    print("\n== NDB datanode failure: metadata survives in the node group ==")
    db = cluster.driver.cluster
    db.kill_node(0)
    print(f"  killed NDB datanode 0; cluster available: {db.is_available()}")
    assert client.stat("/critical/data.bin") is not None
    db.restart_node(0)
    print("  NDB datanode 0 recovered from its node-group peer")


def hdfs_demo() -> None:
    print("\n== HDFS: failover means downtime ==")
    clock = ManualClock()
    cluster = HDFSCluster(num_datanodes=3, clock=clock)
    client = cluster.client("user")
    client.write_file("/critical/data.bin", b"precious bytes")
    cluster.tick()  # the standby tails the edit log

    cluster.kill_active_namenode()
    print("  killed the active namenode")
    promoted = cluster.tick_failover()
    print(f"  immediately after: standby promoted? {promoted} "
          "(no — the coordinator lease has not expired)")
    clock.advance(10.0)  # the paper measures 8-10 s of downtime here
    promoted = cluster.tick_failover()
    print(f"  after the ~10 s lease timeout: standby promoted? {promoted}")
    print("  data intact after failover:",
          client.read_file("/critical/data.bin") == b"precious bytes")


if __name__ == "__main__":
    hopsfs_demo()
    hdfs_demo()
