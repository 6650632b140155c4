"""A metric lives with the component that produces it.

The engine (``NDBCluster.metrics``), the remote driver
(``RemoteDriver.metrics``) and each namenode (``NameNode.metrics``) own
the registries they record into; nothing reaches a registry through the
tracing thread-local. These tests pin what that buys: the engine counts
all the work it does whoever asked, the ``ndb_*`` families have one home
per deployment, an unsampled operation binds nothing, and the cluster
views still export every family they exported before.
"""

import ast
import itertools
import re
from pathlib import Path

import pytest

import repro
from repro.dal import NDBCluster, RemoteDriver
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
    "hopsfs_phase_seconds", "hint_cache_size",
    "hint_cache_hits", "hint_cache_misses", "hint_cache_invalidations",
    "hint_cache_evictions", "hint_cache_hit_rate",
    "resolver_batched_resolutions", "resolver_recursive_resolutions",
}
ENGINE_GAUGES = {
    "ndb_lock_waits", "ndb_lock_deadlocks", "ndb_lock_timeouts",
    "ndb_lock_wait_seconds", "ndb_lock_table_size",
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
    driver = NDBCluster(NDB)
    driver.create_table(TableSchema(name="t", columns=("pk", "v"),
                                    primary_key=("pk",)))
    metrics = driver.metrics
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
    embedded = _fs(NDBCluster(NDB))
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

    traced = len(nn.tracer.recent())
    nn._fs_op("stat", fn)
    assert len(nn.tracer.recent()) == traced  # no trace started
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
    engine = _observations(fs.driver.metrics, "ndb_shard_op_seconds")
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


# -- the catalogue: docs/observability.md §1 against the code ------------------

#: the modules whose code records into a namenode's registry: the
#: namenode and its two op mixins, and the tracer it hands the registry
NAMENODE_MODULES = ("hopsfs/namenode.py", "hopsfs/ops_inode.py",
                    "hopsfs/ops_subtree.py", "metrics/tracing.py")
#: the registry methods that take a family name first
_RECORDING = {"inc", "observe", "counter", "histogram", "gauge", "set_gauge"}


def _expand_braces(text):
    """``db_rows_{read,written}_total`` -> both names."""
    parts = re.split(r"\{([^}]*)\}", text)
    choices = [part.split(",") if i % 2 else [part]
               for i, part in enumerate(parts)]
    return {"".join(pick) for pick in itertools.product(*choices)}


def _documented_families(owner):
    """Every family a §1 row of ``owner`` names, braces expanded."""
    doc = Path(__file__).parents[1] / "docs" / "observability.md"
    section = doc.read_text(encoding="utf-8").split("## 1.")[1]
    section = section.split("\n## ")[0]
    names = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and cells[-1] == owner:
            for quoted in re.findall(r"`([^`]+)`", cells[0]):
                names |= _expand_braces(quoted)
    return names


def _recorded_families(module):
    """Every literal family name ``module`` passes to a registry method;
    an f-string name inside ``for key in (<literals>)`` expands over
    the literals."""
    tree = ast.parse(module.read_text(encoding="utf-8"))
    loops = {}  # id(JoinedStr) -> (loop variable, its values)
    for loop in ast.walk(tree):
        if (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
                and isinstance(loop.iter, (ast.Tuple, ast.List))):
            values = [elt.value for elt in loop.iter.elts]
            for node in ast.walk(loop):
                if isinstance(node, ast.JoinedStr):
                    loops[id(node)] = (loop.target.id, values)
    names = set()
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _RECORDING and call.args):
            continue
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            names.add(first.value)
        elif isinstance(first, ast.JoinedStr):
            var, values = loops[id(first)]
            template = "".join(
                "{}" if isinstance(part, ast.FormattedValue)
                and isinstance(part.value, ast.Name) and part.value.id == var
                else part.value for part in first.values)
            names |= {template.format(value) for value in values}
    return names


def test_the_catalogue_names_exactly_the_namenodes_families():
    """A doc row cannot outlive its metric, nor a metric go undocumented:
    the ``namenode`` rows of docs/observability.md §1 name exactly what
    the namenode's code can register — error-path-only families like
    ``fs_op_errors_total`` and ``hopsfs_slow_ops_total`` included, which
    no workload test reaches."""
    src = Path(repro.__file__).parent
    recorded = set().union(*(_recorded_families(src / module)
                             for module in NAMENODE_MODULES))
    assert _documented_families("namenode") == recorded
    assert {"fs_op_errors_total", "fs_op_stale_subtree_locks_total",
            "hopsfs_slow_ops_total"} <= recorded
    assert NAMENODE_FAMILIES <= recorded


@pytest.mark.parametrize("owner, modules, rare", [
    pytest.param("ndb-server", ("rpc/server.py", "rpc/loop.py"),
                 {"rpc_errors_total", "rpc_drain_aborted_total",
                  "rpc_injected_conn_drops_total"}, id="ndb-server"),
    pytest.param("remote driver", ("dal/remote_driver.py",),
                 {"rpc_client_reconnects_total"}, id="remote-driver"),
])
def test_the_catalogue_names_exactly_the_rpc_families(owner, modules, rare):
    """As for the namenode: the ``ndb-server`` and ``remote driver`` rows
    of docs/observability.md §1 name exactly what the server (its frame
    loop and its transaction registry) and the client side of the wire
    can register — the ``rare`` families, which only an error, a
    shutdown, an injected fault or a redial records, included."""
    src = Path(repro.__file__).parent
    recorded = set().union(*(_recorded_families(src / module)
                             for module in modules))
    assert _documented_families(owner) == recorded
    assert rare <= recorded


#: the owner cell of the one ``ndb_*`` row the engine does not own
#: outright: a session's retries count wherever that session runs
SESSION_OWNER = ("whoever owns the session: engine (embedded), "
                 "remote driver (process)")


def test_the_catalogue_names_exactly_the_engine_families():
    """As for the namenode: the ``engine`` rows of docs/observability.md
    §1 name exactly what ``repro/ndb`` can register — the lock manager's
    counters, the cluster's histograms and its refreshed gauges — and
    the session's retry counter is the one ``ndb_*`` family documented
    under its session's owner."""
    ndb = Path(repro.__file__).parent / "ndb"
    recorded = set().union(*(_recorded_families(module)
                             for module in sorted(ndb.glob("*.py"))))
    session = _recorded_families(ndb / "session.py")
    assert session == _documented_families(SESSION_OWNER) \
        == {"ndb_tx_retries_total"}
    assert _documented_families("engine") == recorded - session
    assert ENGINE_GAUGES | ENGINE_RECORDED <= recorded
