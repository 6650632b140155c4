"""The engine's two dispatch paths and ``read_batch``'s per-shard fetch.

Work that stays on the calling thread is a plain loop over its shards;
work the shard executor runs is one thunk per shard. Both must return
the same rows, record the same access events and time the same shard
visits. A batched primary-key read reads each shard with one fragment
call and lays the transaction's buffered writes over what it got.
"""

import pytest

from repro.errors import ClusterDownError
from repro.ndb import LockMode, NDBCluster, NDBConfig, TableSchema
from repro.ndb.fragment import Fragment
from repro.ndb.transaction import Transaction

INODES = TableSchema(
    name="inodes",
    columns=("parent_id", "name", "inode_id", "perm"),
    primary_key=("parent_id", "name"),
    partition_key=("parent_id",),
)
BLOCKS = TableSchema(
    name="blocks",
    columns=("inode_id", "block_id", "size"),
    primary_key=("inode_id", "block_id"),
    partition_key=("inode_id",),
)

INLINE = dict(network_delay=0.0)
EXECUTOR = dict(network_delay=0.0001, executor_threads=4)


def make_cluster(**dispatch):
    cluster = NDBCluster(NDBConfig(num_datanodes=4, replication=2,
                                   lock_timeout=2.0, **dispatch))
    cluster.create_table(INODES)
    cluster.create_table(BLOCKS)
    with cluster.begin() as tx:
        for parent in range(6):
            for name in ("a", "b", "c"):
                tx.insert("inodes", {"parent_id": parent, "name": name,
                                     "inode_id": 10 * parent + ord(name),
                                     "perm": 0o644})
        for inode in (1, 2, 3):
            for block in range(inode):
                tx.insert("blocks", {"inode_id": inode, "block_id": block,
                                     "size": 64})
    return cluster


def shards(cluster, table, pks):
    return {cluster.partition_of(table, pk) for pk in pks}


def visits(cluster):
    """``ndb_shard_op_seconds`` observations by (shard, kind), the
    ``ndb_shard_fanout`` observations and the dispatch counts."""
    hists = {}
    for hist in cluster.metrics.histograms():
        labels = dict(hist.labels)
        if hist.name == "ndb_shard_op_seconds":
            hists[(labels["shard"], labels["kind"])] = hist.count
    fanout = cluster.metrics.histogram("ndb_shard_fanout")
    dispatch = {path: cluster.metrics.counter(
        "ndb_shard_dispatch_total", path=path).value
        for path in ("inline", "parallel")}
    return hists, (fanout.count, fanout.total), dispatch


def run_the_mix(cluster):
    """A read batch with riding scans, a locking scan batch and a commit
    with participants in both node groups: their results and events."""
    keys = [(p, n) for p in (4, 0, 3, 1) for n in ("b", "a")] + [(5, "zz")]
    out = []
    tx = cluster.begin()
    out.append(tx.read_batch(
        "inodes", keys, scans=[("blocks", {"inode_id": 3}),
                               ("blocks", {"inode_id": 2})], commit=True))
    out.append(tx.stats.events)
    with cluster.begin() as tx:
        out.append(tx.ppis_batch([("inodes", {"parent_id": 2}),
                                  ("inodes", {"parent_id": 5})],
                                 lock=LockMode.SHARED))
    out.append(tx.stats.events)
    with cluster.begin() as tx:
        tx.update("inodes", (0, "a"), {"perm": 0o600})
        tx.delete("inodes", (2, "c"))
        tx.insert("inodes", {"parent_id": 5, "name": "new", "inode_id": 99,
                             "perm": 0o644})
        tx.insert("blocks", {"inode_id": 4, "block_id": 0, "size": 1})
    out.append(tx.stats.events)
    out.append({key: frag.snapshot() for node in cluster.datanodes
                for key, frag in node.fragments.items()})
    return out


def test_inline_and_executor_paths_agree():
    inline, executor = make_cluster(**INLINE), make_cluster(**EXECUTOR)
    try:
        assert not inline.parallel_dispatch_enabled
        assert executor.parallel_dispatch_enabled
        seeded = visits(executor)[2]["parallel"]
        assert run_the_mix(inline) == run_the_mix(executor)
        commit_groups = {inline.group_table()[pid] for pid in shards(
            inline, "inodes", [(0, "a"), (5, "new"), (2, "c")])}
        assert commit_groups == {0, 1}
        (hists, fanout, dispatch), (x_hists, x_fanout, x_dispatch) = (
            visits(inline), visits(executor))
        assert hists == x_hists
        assert fanout == x_fanout
        # only the path label differs
        assert dispatch["parallel"] == 0
        assert x_dispatch["parallel"] > seeded
        assert sum(dispatch.values()) == sum(x_dispatch.values())
    finally:
        executor.close()


def spy_fragment_reads(monkeypatch):
    """The fragment reads a batch makes: a per-key read fails the test,
    each ``Fragment.get``/``get_many`` call is listed."""
    calls = []

    def spy(method):
        real = getattr(Fragment, method)

        def call(self, pks):
            calls.append(method)
            return real(self, pks)
        monkeypatch.setattr(Fragment, method, call)

    def per_key(*args):
        raise AssertionError("a per-key read")

    spy("get")
    spy("get_many")
    monkeypatch.setattr(Transaction, "_committed_or_buffered", per_key)
    return calls


def test_a_batch_sees_its_own_inserts_updates_and_deletes(monkeypatch):
    """A written table is read the same way: one fragment call per
    shard, the buffered writes laid over it."""
    cluster = make_cluster()
    keys = [(0, "a"), (1, "c"), (3, "new"), (2, "b"), (0, "b")]
    assert len(shards(cluster, "inodes", keys)) >= 2
    with cluster.begin() as tx:
        tx.update("inodes", (0, "a"), {"perm": 0o600})
        tx.delete("inodes", (1, "c"))
        tx.insert("inodes", {"parent_id": 3, "name": "new", "inode_id": 99,
                             "perm": 0o640})
        calls = spy_fragment_reads(monkeypatch)
        rows = tx.read_batch("inodes", keys)
        assert len(calls) == len(shards(cluster, "inodes", keys))
        assert [row and (row["name"], row["perm"]) for row in rows] == [
            ("a", 0o600), None, ("new", 0o640), ("b", 0o644), ("b", 0o644)]
        rows[0]["perm"] = 0  # a copy, not the buffered row
        assert tx.read_batch("inodes", keys[:1])[0]["perm"] == 0o600
        tx.abort()


def test_a_batch_of_an_unwritten_table_reads_each_shard_once(monkeypatch):
    """Buffered writes in another table: one fragment call per shard, no
    per-key read, and the rows handed out are copies."""
    cluster = make_cluster()
    keys = [(p, n) for p in range(6) for n in ("a", "c")] + [(0, "zz")]
    calls = spy_fragment_reads(monkeypatch)
    with cluster.begin() as tx:
        tx.insert("blocks", {"inode_id": 7, "block_id": 0, "size": 1})
        rows = tx.read_batch("inodes", keys)
        assert len(calls) == len(shards(cluster, "inodes", keys))
        assert [row and row["name"] for row in rows] == [
            name for _, name in keys[:-1]] + [None]
        for row in rows[:-1]:
            row["perm"] = 0
    monkeypatch.undo()
    stored = [cluster._primary_fragment(
        "inodes", cluster.partition_of("inodes", pk)).peek(pk)["perm"]
        for pk in keys[:-1]]
    assert stored == [0o644] * len(stored)


@pytest.mark.parametrize("written", [False, True], ids=["unwritten", "written"])
def test_a_batch_on_a_dead_node_group_raises(written):
    cluster = make_cluster()
    groups = cluster.group_table()
    keys = [(p, "a") for p in range(6)]
    assert {groups[pid] for pid in shards(cluster, "inodes", keys)} == {0, 1}
    cluster.kill_node(0)
    cluster.kill_node(1)  # nodes 0 and 1 are node group 0
    live = next(pk for pk in keys
                if groups[cluster.partition_of("inodes", pk)] == 1)
    tx = cluster.begin()
    if written:
        tx.update("inodes", live, {"perm": 0o600})
    assert tx.read_batch("inodes", [live])[0]["name"] == "a"
    with pytest.raises(ClusterDownError):
        tx.read_batch("inodes", keys)
    tx.abort()
