"""What a partition-pruned index scan costs, counted — no clocks.

The paper's cost argument (§4-5) needs ``ls`` and every file-metadata
lookup to cost the directory's (the file's) size, not the shard's. These
tests count the rows a fragment visits and the buffered writes a scan
looks at, so the bound holds on any host at any speed.
"""

import pytest

from repro.ndb import LockMode, NDBCluster, NDBConfig, TableSchema
from repro.ndb.fragment import Fragment
from tests.conftest import make_hopsfs

DIRS = TableSchema(
    name="dirs",
    columns=("parent", "name", "size"),
    primary_key=("parent", "name"),
    partition_key=("parent",),
    indexes={"by_size": ("size",)},
)
OTHER = TableSchema(name="other", columns=("k", "v"), primary_key=("k",))


@pytest.fixture
def cluster():
    c = NDBCluster(NDBConfig(num_datanodes=2, replication=2, lock_timeout=0.4))
    c.create_table(DIRS)
    c.create_table(OTHER)
    return c


@pytest.fixture
def visits(monkeypatch):
    """Rows each fragment read path looks at, by method name."""
    key_args = {"scan": 0, "partition_lookup": 1, "index_lookup": 2}
    seen = dict.fromkeys(key_args, 0)

    def counted(name):
        original = getattr(Fragment, name)

        def method(self, *args, predicate=None):
            if len(args) > key_args[name]:
                *args, predicate = args

            def visit(row):
                seen[name] += 1
                return predicate is None or predicate(row)
            return original(self, *args, visit)
        return method

    for name in seen:
        monkeypatch.setattr(Fragment, name, counted(name))
    return seen


def fill(cluster, parent, n):
    with cluster.begin() as tx:
        for i in range(n):
            tx.insert("dirs", {"parent": parent, "name": f"f{i}", "size": i})


def test_ppis_visits_only_the_partition_value(cluster, visits):
    k, others = 5, 200
    for parent in range(1, others + 1):
        fill(cluster, parent, 2)
    fill(cluster, 0, k)
    pid = cluster.partition_for_values("dirs", {"parent": 0})
    assert len(cluster._primary_fragment("dirs", pid)) >= 10 * k  # N >> k

    calls = []
    with cluster.begin() as tx:
        rows = tx.ppis("dirs", {"parent": 0},
                       predicate=lambda row: calls.append(row) or True)
    assert len(rows) == k
    assert len(calls) == k and visits["partition_lookup"] == k
    assert visits["scan"] == 0

    # a locking scan looks at each row twice: candidate, then re-read
    with cluster.begin() as tx:
        assert len(tx.ppis("dirs", {"parent": 0},
                           lock=LockMode.SHARED)) == k
    assert visits["partition_lookup"] == 2 * k and visits["scan"] == 0


def test_ppis_merges_only_its_tables_in_scope_writes(cluster):
    k, same_value, other_values = 4, 3, 30
    fill(cluster, 0, k)
    calls = []
    with cluster.begin() as tx:
        for i in range(same_value):
            tx.insert("dirs", {"parent": 0, "name": f"new{i}", "size": 0})
        for parent in range(1, other_values + 1):
            tx.insert("dirs", {"parent": parent, "name": "x", "size": 0})
        rows = tx.ppis("dirs", {"parent": 0},
                       predicate=lambda row: calls.append(row) or True)
        tx.abort()
    assert len(rows) == k + same_value
    assert len(calls) == k + same_value  # not the 30 writes elsewhere


class _Tripwire(dict):
    """A write set that must not be walked."""

    def _walked(self, *args, **kwargs):
        raise AssertionError("a scan walked another table's buffered writes")

    __iter__ = items = keys = values = _walked


def test_scan_of_unwritten_table_does_no_per_write_work(cluster, monkeypatch):
    fill(cluster, 0, 3)
    tx = cluster.begin()
    for k in range(50):
        tx.insert("other", {"k": k, "v": 0})
    tx._writes = _Tripwire(tx._writes)
    tx._table_writes["other"] = _Tripwire(tx._table_writes["other"])
    placed = []
    real = cluster.partition_of
    monkeypatch.setattr(
        cluster, "partition_of",
        lambda table, pk: placed.append(table) or real(table, pk))
    assert len(tx.ppis("dirs", {"parent": 0})) == 3
    assert len(tx.ppis("dirs", {"parent": 0}, lock=LockMode.SHARED)) == 3
    assert len(tx.index_scan("dirs", "by_size", (1,))) == 1
    assert len(tx.full_scan("dirs")) == 3
    assert placed == []  # no buffered row was placed on a shard either
    tx.abort()


def test_content_summary_cost_is_independent_of_sibling_trees(visits):
    """One tree's ``content_summary`` visits the same rows whether 1 or 12
    trees share the shards (PR 12's ledger: 8 ms with 3 trees, 45 ms with
    12)."""

    def build(fs, tree):
        client = fs.client("builder")
        for d in range(4):
            for f in range(6):
                client.create(f"/t{tree}/d{d}/f{f}")

    def summary_visits(trees):
        fs = make_hopsfs(num_namenodes=1)
        for tree in range(trees):
            build(fs, tree)
        before = dict(visits)
        summary = fs.client("reader").content_summary("/t0")
        assert (summary.file_count, summary.directory_count) == (24, 4)
        return {name: visits[name] - before[name] for name in visits}

    alone, crowded = summary_visits(1), summary_visits(12)
    assert alone == crowded
    # the tree's own inodes and no others: /t0 is a top-level directory,
    # so its 4 children are spread over the shards (§4.2.1, index scan)
    assert alone == {"scan": 0, "index_lookup": 4, "partition_lookup": 24}
