"""Round-trip budget regression tests (the cost program's ledger).

Every cell here is an *exact* count of database round trips per warm
metadata operation, read off the namenode's ``db_round_trips_total``
counter. The counts are deterministic — the engine counts one round
trip per batched access — so any drift means someone added or removed
a database access on the hot path.

The expected values are NOT duplicated here: they come from the shared
budget table in :mod:`repro.analysis.budgets`, the same table the static
analyzer (HFS105) checks its derived bounds against. The contract:

* static side — ``python -m repro.analysis budgets`` derives a symbolic
  warm bound for every ``_fs_op`` callback and fails when it differs
  from the table;
* runtime side — these tests measure real operations and pin the
  measured round trips to the table entries (with workload symbols
  bound to the scenario's sizes).

A new helper that adds a round trip therefore fails the linter, and an
analyzer bug that undercounts fails the runtime pin. If a change
legitimately alters a budget, update ``OP_BUDGETS`` *in the same PR*
and say why in the commit.

The *wire budget* at the bottom is the same ledger one layer down: over
an ndb-server, how many frames a warm operation sends and how many of
them it *waits for*.

The cold cell pins the one fallback the resolver has (hint-cache miss →
recursive PK reads, then the same batched lock read the warm path issues);
its count lives here, not in the table — the analyzer only models the
warm path.
"""

import pytest

from repro.analysis.budgets import budget_for
from repro.hopsfs.blockreport import BlockReportProcessor
from repro.ndb.stats import AccessKind, AccessStats
from tests.conftest import make_hopsfs

#: measured client-facing op -> ``_fs_op`` name in the budget table
OP_TABLE_KEYS = {
    "stat": "stat",
    "mkdir": "mkdirs",
    "create": "create",
    "rename": "rename",
}


def _budget(op_name: str, **bounds: int) -> int:
    budget = budget_for(op_name)
    assert budget is not None, f"no budget table entry for {op_name!r}"
    return budget.cost.evaluate(**bounds)


def _warm_namenode():
    fs = make_hopsfs(num_namenodes=1)
    nn = fs.namenodes[0]
    nn.mkdirs("/a/b")
    nn.create("/a/b/f0", client="c")
    nn.get_file_info("/a/b/f0")
    nn.rename("/a/b/f0", "/a/b/g0")  # warm every op (+ id leases) once
    return nn


def _measure(nn, repeat: int = 3):
    counter = nn.metrics.counter("db_round_trips_total")
    ops = {
        "stat": lambda i: nn.get_file_info("/a/b/g0"),
        "mkdir": lambda i: nn.mkdirs(f"/a/b/d{i}"),
        "create": lambda i: nn.create(f"/a/b/n{i}", client="c"),
        "rename": lambda i: nn.rename(f"/a/b/n{i}", f"/a/b/r{i}"),
    }
    used = {}
    for name, op in ops.items():
        costs = set()
        for i in range(repeat):
            before = counter.value
            op(i)
            costs.add(int(counter.value - before))
        assert len(costs) == 1, f"{name} round trips not deterministic: {costs}"
        used[name] = costs.pop()
    return used


def test_optimized_budgets_match_shared_table():
    nn = _warm_namenode()
    used = _measure(nn)
    expected = {op: _budget(key) for op, key in OP_TABLE_KEYS.items()}
    assert used == expected


def test_cold_create_is_recursive_reads_plus_one_batched_lock_reread():
    """Hint-cache miss: the warm lock phase (ONE locked BATCH_PK, the
    missing last component's key computed) is preceded by one PK read
    per component — N PK reads, then the SAME locked BATCH_PK over the
    rows just read; never a PK read per locked component."""
    nn = _warm_namenode()
    kinds = (AccessKind.PK, AccessKind.BATCH_PK)

    def accesses(path):
        counters = [nn.metrics.counter("db_access_total", kind=k.value)
                    for k in kinds]
        counters.append(nn.metrics.counter("db_round_trips_total"))
        before = [c.value for c in counters]
        nn.create(path, client="c")
        return [int(c.value - b)
                for c, b in zip(counters, before, strict=True)]

    warm_pk, warm_batched, warm_total = accesses("/a/b/warm")
    nn.hint_cache.clear()
    cold_pk, cold_batched, cold_total = accesses("/a/b/cold")
    assert (warm_pk, warm_total) == (0, _budget("create"))
    assert cold_pk == 3                  # a, b, and the missing last
    assert cold_batched == warm_batched  # the same lock batch (+ quota's)
    assert cold_total == _budget("create") + 3 == 7


def test_warm_stat_is_one_batched_read():
    """The headline cell: a warm stat is ONE round trip, and that round
    trip is a batched PK read (no per-component reads, no re-read)."""
    nn = _warm_namenode()
    nn.get_file_info("/a/b/g0")
    batched = nn.metrics.counter("db_access_total",
                                 kind=AccessKind.BATCH_PK.value)
    total = nn.metrics.counter("db_round_trips_total")
    b0, t0 = batched.value, total.value
    nn.get_file_info("/a/b/g0")
    assert total.value - t0 == _budget("stat") == 1
    assert batched.value - b0 == 1


class TestSubtreeBudgets:
    """Pin the subtree-delete protocol phases to the shared table.

    A warm recursive delete of a small directory is four budgeted ops in
    sequence: ``delete_subtree_lock`` (lock the root, §6.1),
    ``subtree_quiesce`` (wait out in-flight ops below it),
    ``subtree_delete_batch`` per batch (here one batch of ``node``
    leaf rows), and ``delete_subtree_root`` (unlink the quiesced root).
    """

    def test_warm_subtree_delete_matches_composite_budget(self):
        fs = make_hopsfs(num_namenodes=1)
        nn = fs.namenodes[0]
        # warm with a sibling subtree of the same shape
        nn.mkdirs("/w")
        nn.create("/w/f0", client="c")
        nn.create("/w/f1", client="c")
        nn.delete_subtree("/w")
        nn.mkdirs("/s")
        nn.create("/s/f0", client="c")
        nn.create("/s/f1", client="c")
        counter = nn.metrics.counter("db_round_trips_total")
        before = counter.value
        # delete_subtree directly: the recursive `delete` entry point adds
        # a dispatch probe (inline delete op, read-only abort) on top
        assert nn.delete_subtree("/s")
        used = int(counter.value - before)
        expected = (
            _budget("delete_subtree_lock")
            + _budget("subtree_quiesce")
            # one batch deleting the two (zero-block) leaf files
            + _budget("subtree_delete_batch", node=2, block=0, replica=0)
            + _budget("delete_subtree_root")
        )
        assert used == expected


    def test_delete_batch_trips_do_not_grow_with_size(self):
        """Lock batch, flush, commit: a batch whose inodes' ``sub_tables``
        bits are all clear scans nothing (zero-block files: no
        per-replica invalidation reads either). One flagged inode adds
        the one ``ppis_batch`` that scans for the whole batch."""
        assert (_budget("subtree_delete_batch", node=1, block=0, replica=0)
                == _budget("subtree_delete_batch", node=64, block=0,
                           replica=0) == 3)
        fs = make_hopsfs(num_namenodes=1)  # subtree_batch_size=8
        nn = fs.namenodes[0]
        used = []
        for size, flagged in ((2, False), (8, False), (8, True)):
            nn.mkdirs("/t")
            for i in range(size):
                nn.create(f"/t/f{i}", client="c")
            if flagged:
                nn.set_xattr("/t/f3", "user.k", "v")
            counter = nn.metrics.counter("db_round_trips_total")
            before = counter.value
            assert nn.delete_subtree("/t")
            used.append(int(counter.value - before))
        assert used[0] == used[1] == used[2] - 1
        assert fs.driver.table_size("xattrs") == 0


def _create_level_by_level(nn, path: str) -> None:
    """Create a file, making each missing directory in a transaction of
    its own: ``create`` of a path with several missing directories
    inserts them root-down and only then touches the existing prefix's
    last row, an ancestor-after-descendant edge the lock-order witness
    would close into a cycle with the level-wide quiesce batches."""
    parts = path.strip("/").split("/")
    for depth in range(1, len(parts)):
        nn.mkdirs("/" + "/".join(parts[:depth]))
    nn.create(path, client="c")


def _subtree_txs(levels, batch: int) -> int:
    """Transactions of a root-update subtree op: phase 1, phase 3 and,
    per level of the walk, one per group of ``batch`` plain directories
    plus one per directory with hash-partitioned children."""
    return 2 + sum(-(-plain // batch) + hashed for plain, hashed in levels)


class TestSubtreeTransactionCount:
    """How many transactions a subtree ``set_owner`` is — exact: the
    quiesce is one ``subtree_quiesce`` transaction (budget ``"1"``) per
    *group*, so the op's cost is its level shape, not its directory
    count."""

    @staticmethod
    def _chown_txs(nn, path):
        before = nn.op_counts()
        nn.chown_subtree(path, "u", "g")
        spent = {op: n - before.get(op, 0)
                 for op, n in nn.op_counts().items() if n != before.get(op, 0)}
        assert spent.pop("chown_subtree_lock") == 1
        assert spent.pop("chown_subtree") == 1
        assert set(spent) == {"subtree_quiesce"}
        return 2 + spent["subtree_quiesce"]

    def test_the_ledger_tree_shape_is_five_transactions(self):
        """1, 8 and 40 directories per level at the default group bound
        of 64: three quiesce transactions where there were 49."""
        fs = make_hopsfs(num_namenodes=1, subtree_batch_size=64)
        nn = fs.namenodes[0]
        for parent in range(8):
            for leaf in range(5):
                _create_level_by_level(
                    nn, f"/x/y/tree/p{parent}/d{leaf}/f")
        assert (self._chown_txs(nn, "/x/y/tree")
                == _subtree_txs([(1, 0), (8, 0), (40, 0)], 64) == 5)

    def test_a_level_of_twenty_directories_is_three_groups_of_eight(self):
        fs = make_hopsfs(num_namenodes=1)  # subtree_batch_size=8
        nn = fs.namenodes[0]
        for d in range(20):
            nn.create(f"/x/y/wide/d{d}/f", client="c")
        assert (self._chown_txs(nn, "/x/y/wide")
                == _subtree_txs([(1, 0), (20, 0)], 8) == 2 + 1 + 3)

    def test_a_hash_partitioned_directory_is_a_transaction_of_its_own(self):
        # depth <= 3 hashed: /top and its three directories all scan
        # every shard, the level below them is plain again
        fs = make_hopsfs(num_namenodes=1, random_partition_depth=3)
        nn = fs.namenodes[0]
        for d in range(3):
            for leaf in range(2):
                _create_level_by_level(nn, f"/top/d{d}/e{leaf}/f")
        assert (self._chown_txs(nn, "/top")
                == _subtree_txs([(0, 1), (0, 3), (6, 0)], 8) == 2 + 1 + 3 + 1)


class TestBlockReportBudgets:
    """Pin block-report reconciliation (§7.7) to the shared table.

    Steady state (nothing to reconcile) is the per-batch lookup plus the
    per-datanode replica view. Add/drop reconciliation pays one more
    budgeted op per touched inode; an empty report skips the lookup op
    entirely (no block ids to resolve).
    """

    @pytest.fixture
    def reporting(self):
        fs = make_hopsfs(num_namenodes=1, num_datanodes=2)
        client = fs.client("br")
        client.mkdirs("/d")
        client.write_file("/d/f", b"x" * 10, replication=1)
        nn = fs.any_namenode()
        dn = max(fs.datanodes, key=lambda d: d.block_count())
        proc = BlockReportProcessor(nn)
        proc.process(dn.dn_id, dn.block_report())  # warm caches
        return nn, dn, proc

    def _delta(self, nn, fn):
        counter = nn.metrics.counter("db_round_trips_total")
        before = counter.value
        fn()
        return int(counter.value - before)

    def test_steady_state_report(self, reporting):
        nn, dn, proc = reporting
        used = self._delta(
            nn, lambda: proc.process(dn.dn_id, dn.block_report()))
        assert used == (_budget("block_report_lookup")
                        + _budget("block_report_dbview"))

    def test_drop_then_readd_one_replica(self, reporting):
        nn, dn, proc = reporting
        report = dn.block_report()
        # empty report: no lookup batches run, one drop op removes the
        # replica row (extra=0: replication target 1, no re-replication)
        used = self._delta(nn, lambda: proc.process(dn.dn_id, []))
        assert used == (_budget("block_report_dbview")
                        + _budget("block_report_drop", extra=0))
        # re-report: lookup + view + one add op finalizing 1 block
        used = self._delta(nn, lambda: proc.process(dn.dn_id, report))
        assert used == (_budget("block_report_lookup")
                        + _budget("block_report_dbview")
                        + _budget("block_report_add", block=1, extra=0))


def test_round_trip_budget_view():
    """RoundTripBudget: the unit of account the cost program gates on."""
    stats = AccessStats()
    budget = stats.budget(2)
    assert budget.used == 0 and budget.remaining == 2
    assert not budget.exceeded
    stats.round_trips += 2
    assert budget.used == 2 and budget.remaining == 0
    assert not budget.exceeded  # at the limit is within budget
    stats.round_trips += 1
    assert budget.exceeded and budget.remaining == -1


def test_budget_counts_from_open_not_from_zero():
    stats = AccessStats()
    stats.round_trips = 7  # history before the op under measurement
    budget = stats.budget(1)
    stats.round_trips += 1
    assert budget.used == 1 and not budget.exceeded


class TestWireBudget:
    """Frames a warm operation sends over an ndb-server and how many of
    them it *waits for*, pinned with zero tolerance under one rule
    (define locally, ship on execute; since v4 also ``execute(Commit)``):

    * a read-only op waits exactly ``AccessStats.round_trips`` times —
      once per database round trip, nothing for ``begin`` — and sends one
      more frame, the one-way commit, only if its last read could not
      carry the commit;
    * a writing op waits (its read round trips) + 1 for the commit, which
      carries every buffered write, and sends nothing else.
    """

    #: op -> (frames, waits); the literal table of docs/performance.md
    PINNED = {"stat": (1, 1), "read": (1, 1), "ls": (1, 1),
              "ls_hashed": (3, 2), "create": (3, 3), "mkdirs": (3, 3),
              "set_permission": (2, 2), "rename": (6, 6), "delete": (3, 3)}

    @pytest.fixture
    def remote_nn(self):
        from repro.dal import RemoteDriver
        from repro.hopsfs import HopsFSCluster, HopsFSConfig
        from repro.ndb import NDBConfig
        from repro.rpc import NDBServer
        from repro.util.clock import ManualClock

        with NDBServer(config=NDBConfig(num_datanodes=4, replication=2,
                                        lock_timeout=1.0)) as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            try:
                fs = HopsFSCluster(
                    num_namenodes=1, num_datanodes=3, driver=driver,
                    config=HopsFSConfig(clock=ManualClock()))
                yield fs.namenodes[0]
            finally:
                driver.close()

    def test_warm_ops_wait_once_per_read_per_delete_and_per_commit(
            self, remote_nn, monkeypatch):
        from repro.rpc import ClientConn

        nn = remote_nn
        nn.mkdirs("/a/b")
        for i in range(4):
            nn.create(f"/a/b/f{i}", client="c")
        nn.get_file_info("/a/b/f0")
        nn.rename("/a/b/f3", "/a/b/g3")
        nn.delete("/a/b/g3")  # every op (+ id leases, hints) warm

        seen = {"waits": 0, "one_way": 0}

        def counting(cls, name, key):
            real = getattr(cls, name)

            def wrapper(*args, **kwargs):
                seen[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(ClientConn, "_await", "waits")
        counting(ClientConn, "notify", "one_way")

        ops = {
            "stat": lambda: nn.get_file_info("/a/b/f0"),
            "read": lambda: nn.get_block_locations("/a/b/f0"),
            "ls": lambda: nn.list_status("/a/b"),
            # /a's children are hash-partitioned: the listing is an
            # all-shard index scan no hint can prune, so nothing rides
            "ls_hashed": lambda: nn.list_status("/a"),
            "create": lambda: nn.create("/a/b/new", client="c"),
            "mkdirs": lambda: nn.mkdirs("/a/b/dir"),
            "set_permission": lambda: nn.set_permission("/a/b/f1", 0o600),
            "rename": lambda: nn.rename("/a/b/f1", "/a/b/g1"),
            "delete": lambda: nn.delete("/a/b/f2"),
        }
        #: read-only ops whose last read carries the commit
        riding = {"stat", "read", "ls"}
        measured = {}
        for name, op in ops.items():
            seen.update(waits=0, one_way=0)
            stats, nn.stats = nn.stats, AccessStats()
            try:
                op()
                round_trips = nn.stats.round_trips
                wrote = nn.stats.count(AccessKind.COMMIT) > 0
            finally:
                nn.stats = stats
            if wrote:
                # flush + commit are database round trips of one request
                assert seen["waits"] == (round_trips - 2) + 1, name
                assert seen["one_way"] == 0, name
            else:
                assert seen["waits"] == round_trips, name
                # the commit frame, unless the last read carried it
                assert seen["one_way"] == (0 if name in riding else 1), name
            measured[name] = (seen["waits"] + seen["one_way"], seen["waits"])
        assert measured == self.PINNED
        assert {op: _budget(op) for op in ("stat", "read", "ls")} == {
            op: self.PINNED[op][1] for op in ("stat", "read", "ls")}

    def test_a_three_level_quiesce_waits_three_times(self, remote_nn,
                                                     monkeypatch):
        """One reply-bearing ``tx.ppis_batch`` per level and its one-way
        commit: the rule above, unchanged — a quiesce transaction reads
        once and writes nothing."""
        from repro.dal.remote_driver import RemoteTransaction
        from repro.rpc import ClientConn

        nn = remote_nn
        for parent in range(2):
            for leaf in range(3):
                _create_level_by_level(
                    nn, f"/x/y/tree/p{parent}/d{leaf}/f")
        ctx = nn._subtree_begin("/x/y/tree", "chown")
        requests, one_way = [], []
        real_request = RemoteTransaction._request
        real_notify = ClientConn.notify

        def request(tx, method, params):
            requests.append((method, params.get("lock"),
                             len(params.get("scans", ()))))
            return real_request(tx, method, params)

        def notify(conn, method, params):
            one_way.append(method)
            return real_notify(conn, method, params)

        monkeypatch.setattr(RemoteTransaction, "_request", request)
        monkeypatch.setattr(ClientConn, "notify", notify)
        nn._subtree_quiesce(ctx)
        assert requests == [("tx.ppis_batch", "EXCLUSIVE", dirs)
                            for dirs in (1, 2, 6)]
        assert one_way == ["tx.commit"] * 3
        monkeypatch.undo()
        nn._subtree_release(ctx)
