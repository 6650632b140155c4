"""A metric lives with the component that produces it.

The engine (``NDBCluster.metrics``), the remote driver
(``RemoteDriver.metrics``) and each namenode (``NameNode.metrics``) own
the registries they record into; nothing reaches a registry through the
tracing thread-local. These tests pin what that buys: the engine counts
all the work it does whoever asked, the ``ndb_*`` families have one home
per deployment, an unsampled operation binds nothing, and the cluster
views still export every family they exported before.
"""

import pytest

from repro.dal import NDBDriver, RemoteDriver
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.metrics import tracing
from repro.metrics.tracing import TraceContext
from repro.ndb import LockMode, NDBConfig, TableSchema
from repro.rpc import NDBServer
from repro.util.clock import ManualClock

from tests.conftest import make_hopsfs

NDB = NDBConfig(num_datanodes=4, replication=2, lock_timeout=1.0)

#: families (docs/observability.md §1) the cluster view carries after
#: ``_workload`` at full sampling — on either deployment, ...
NAMENODE_FAMILIES = {
    "fs_op_total", "fs_op_seconds", "db_access_total",
    "db_round_trips_total", "db_rows_read_total", "db_rows_written_total",
    "db_rows_locked_total", "db_remote_partition_hops_total",
    "db_op_round_trips", "subtree_op_inodes_total", "subtree_op_seconds",
    "hopsfs_phase_seconds", "degraded_mode", "hint_cache_size",
    "hint_cache_hits", "hint_cache_misses", "hint_cache_invalidations",
    "hint_cache_evictions", "hint_cache_hit_rate",
    "resolver_batched_resolutions", "resolver_recursive_resolutions",
}
ENGINE_GAUGES = {
    "ndb_lock_waits", "ndb_lock_deadlocks", "ndb_lock_timeouts",
    "ndb_lock_wait_seconds", "ndb_lock_table_size", "ndb_lock_stripes",
    "ndb_group_commit_flushes", "ndb_group_commit_records",
    "ndb_group_commit_max_batch",
}
#: ... what the engine itself records (the embedded view has it; behind
#: an ndb-server it is the server's, see the ``metrics`` RPC), ...
ENGINE_RECORDED = {
    "ndb_shard_dispatch_total", "ndb_shard_op_seconds", "ndb_shard_fanout",
    "ndb_commit_participants", "ndb_group_commit_batch",
}
#: ... and what the client side of the wire records.
REMOTE_DRIVER_FAMILIES = {"rpc_request_seconds", "rpc_client_reconnects_total"}


def _fs(driver):
    return HopsFSCluster(
        num_namenodes=1, num_datanodes=3, driver=driver,
        config=HopsFSConfig(clock=ManualClock(), trace_sample_every=1))


def _workload(nn):
    nn.mkdirs("/w/a/b")
    nn.create("/w/a/b/f1")
    nn.create("/w/a/f2")
    nn.get_file_info("/w/a/b/f1")
    nn.list_status("/w/a")
    nn.rename("/w/a/f2", "/w/a/f3")
    assert nn.delete("/w/a/f3")
    nn.set_permission("/w/a/b/f1", 0o600)
    nn.content_summary("/w")
    assert nn.delete("/w", recursive=True)


def _names(snapshot):
    return {entry["name"] for section in ("counters", "gauges", "histograms")
            for entry in snapshot[section]}


def _observations(registry, name):
    return sum(h.count for h in registry.histograms() if h.name == name)


def test_engine_counts_work_done_with_no_operation_on_the_stack():
    """A bare session — no namenode, no ``_fs_op``, no trace — is still
    engine work, and the engine counts it (it used to record only under
    a registry somebody had bound to the calling thread)."""
    driver = NDBDriver(config=NDB)
    driver.create_table(TableSchema(name="t", columns=("pk", "v"),
                                    primary_key=("pk",)))
    metrics = driver.cluster.metrics
    families = ("ndb_shard_op_seconds", "ndb_shard_fanout",
                "ndb_commit_participants")
    before = {name: _observations(metrics, name) for name in families}

    def fn(tx):
        assert tx.read("t", (1,), lock=LockMode.EXCLUSIVE) is None
        tx.write("t", {"pk": 1, "v": "x"})

    assert tracing._ACTIVE.bind == (None, None, None)
    driver.session().run(fn)
    # one locked pk read + one 2PC round over the row's two replicas
    assert _observations(metrics, "ndb_shard_op_seconds") \
        == before["ndb_shard_op_seconds"] + 3
    assert _observations(metrics, "ndb_shard_fanout") \
        == before["ndb_shard_fanout"] + 1
    assert _observations(metrics, "ndb_commit_participants") \
        == before["ndb_commit_participants"] + 1
    kinds = {dict(h.labels)["kind"] for h in metrics.histograms()
             if h.name == "ndb_shard_op_seconds"}
    assert kinds == {"pk", "commit"}


def test_ndb_families_have_one_home_on_each_deployment():
    """The engine owns the same ``ndb_*`` families in-process and behind
    an ndb-server, and each cluster view exports every family it did
    before the registries moved to their owners."""
    embedded = _fs(NDBDriver(config=NDB))
    _workload(embedded.namenodes[0])
    engine = {m.name for kind in ("counters", "gauges", "histograms")
              for m in getattr(embedded.driver.metrics_registry(), kind)()}
    with NDBServer(config=NDB) as server:
        driver = RemoteDriver(server.host, server.port, timeout=10.0)
        try:
            process = _fs(driver)
            _workload(process.namenodes[0])
            served = _names(driver.metrics_snapshot())
            process_view = _names(process.metrics_snapshot())
        finally:
            driver.close()

    assert engine == ENGINE_RECORDED | ENGINE_GAUGES
    assert {n for n in served if n.startswith("ndb_")} == engine
    assert {n for n in served if n.startswith("rpc_")} == {
        "rpc_connections_total", "rpc_requests_total", "rpc_request_seconds",
        "rpc_open_connections", "rpc_open_txs"}
    assert _names(embedded.metrics_snapshot()) \
        >= NAMENODE_FAMILIES | ENGINE_GAUGES | ENGINE_RECORDED
    assert process_view \
        >= NAMENODE_FAMILIES | ENGINE_GAUGES | REMOTE_DRIVER_FAMILIES
    # what moved on purpose: a namenode no longer holds the database's
    # or the wire's families
    for fs in (embedded, process):
        mine = _names(fs.namenodes[0].metrics_snapshot())
        assert not {n for n in mine if n.startswith(("ndb_", "rpc_"))}


@pytest.mark.parametrize("sample_every", [0, 16])
def test_an_unsampled_op_binds_nothing(sample_every):
    fs = make_hopsfs(num_namenodes=1, trace_sample_every=sample_every)
    nn = fs.namenodes[0]
    nn.get_file_info("/")  # at 1-in-16 the first call of an op is sampled
    seen = []

    def fn(tx):
        def f():
            return 7
        seen.append((tracing._ACTIVE.bind, TraceContext.capture().wrap(f), f))

    dropped = nn.tracer.traces_dropped
    nn._fs_op("stat", fn)
    assert nn.tracer.traces_dropped == dropped + bool(sample_every)
    [(bind, wrapped, f)] = seen
    assert bind == (None, None, None)  # (trace, stack, link)
    assert wrapped is f


def test_two_namenodes_on_one_engine_do_not_split_the_engines_histograms():
    fs = make_hopsfs(num_namenodes=2)
    nn1, nn2 = fs.namenodes
    nn1.mkdirs("/x/a")
    nn2.mkdirs("/x/b")
    nn1.create("/x/b/f")
    nn2.get_file_info("/x/b/f")
    engine = _observations(fs.driver.cluster.metrics, "ndb_shard_op_seconds")
    assert engine > 0
    entries = [h for h in fs.metrics_snapshot()["histograms"]
               if h["name"] == "ndb_shard_op_seconds"]
    # one entry per label set, and together exactly the engine's count —
    # including the work no namenode operation asked for (format,
    # registration, leader election)
    labels = [tuple(sorted(h["labels"].items())) for h in entries]
    assert len(labels) == len(set(labels))
    assert sum(h["count"] for h in entries) == engine
    for nn in (nn1, nn2):
        assert not [h for h in nn.metrics.histograms()
                    if h.name.startswith("ndb_")]
