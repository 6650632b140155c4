"""Round-trip budget pins: every warm operation pays exactly its budget.

The budget table (:data:`repro.analysis.budgets.OP_BUDGETS`) says how
many database round trips one warm run of each ``_fs_op`` transaction
pays. This module is the one check that holds the table to the code.
:class:`TestEveryBudget` runs every entry warm, on the embedded NDB
engine, the memory driver and over ``RemoteDriver``, reads each
transaction's count off the namenode's ``db_op_round_trips{op}``
histogram (one sample per run, observed by ``NameNode._fold_stats``)
and pins it, with zero tolerance,
to the entry evaluated at the run's workload sizes. Each symbol of an
entry is measured at two values, each product of symbols at two
combinations. The counts are deterministic (the engine counts one round
trip per batched access), so any drift means a database access was
added to or removed from a warm path.

If a change legitimately alters a cost, edit ``OP_BUDGETS`` in the same
change and say why: the failing pin prints the measured count of every
transaction next to the budgeted one. If you did not mean to, you just
found a redundant read.

The other cells pin what one transaction's count cannot: the cold
create (a hint-cache miss, outside every budget), how many transactions
a subtree operation is, and the *wire budget* one layer down: over an
ndb-server, how many frames a warm operation sends and how many of them
it *waits for*.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.analysis.budgets import OP_BUDGETS, budget_for
from repro.hopsfs.blockreport import BlockReportProcessor
from repro.hopsfs.ops_inode import LEASE_TIMEOUT
from repro.ndb.stats import AccessKind
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


# -- every entry, measured ---------------------------------------------------------

def _samples(nn) -> dict[str, list[int]]:
    """``db_op_round_trips{op}``: each transaction's round trips, by op."""
    return {dict(h.labels)["op"]: [int(value) for _, value in h.samples()]
            for h in nn.metrics.histograms()
            if h.name == "db_op_round_trips"}


def _spent(nn, action: Callable[[], object]) -> dict[str, list[int]]:
    """The transactions ``action`` ran: each one's round trips, by op."""
    before = _samples(nn)
    action()
    return {op: trips[len(before.get(op, ())):]
            for op, trips in _samples(nn).items()
            if len(trips) > len(before.get(op, ()))}


def _file(nn, path: str, blocks: int = 0, dns=(), replication: int = 1,
          client: str = "c") -> list[int]:
    """A file under construction of ``blocks`` blocks, each finalized on
    the datanodes ``dns``; returns the block ids."""
    nn.create(path, client=client, replication=replication)
    block_ids = []
    for _ in range(blocks):
        block = nn.add_block(path, client)
        for dn_id in dns:
            nn.block_received(dn_id, block.block_id, 4)
        block_ids.append(block.block_id)
    return block_ids


def _subtree(nn, node: int = 1, block: int = 0, replica: int = 0) -> str:
    """``/a/b/t`` holding ``node`` files of ``block`` blocks on
    ``replica`` datanodes each (as many as their target)."""
    nn.mkdirs("/a/b/t")
    for i in range(node):
        _file(nn, f"/a/b/t/f{i}", blocks=block, dns=range(1, 1 + replica),
              replication=max(1, replica))
    return "/a/b/t"


def _on_file(op, xattr: bool = False):
    """A scenario: ``op(nn, path)`` on a fresh file (with one xattr)."""

    def scenario(fs, nn, **_):
        nn.create("/a/b/x", client="c")
        if xattr:
            nn.set_xattr("/a/b/x", "user.k", "v")
        return lambda: op(nn, "/a/b/x")

    return scenario


def _on_empty_dir(op):
    """A scenario: ``op(nn, path)`` on a fresh empty directory."""

    def scenario(fs, nn, **_):
        nn.mkdirs("/a/b/x")
        return lambda: op(nn, "/a/b/x")

    return scenario


def _on_subtree(op):
    """A scenario: ``op(nn, path)`` on a directory holding one file."""

    def scenario(fs, nn, **_):
        path = _subtree(nn)
        nn.mkdirs("/a/c")  # a hinted parent for a move's destination
        return lambda: op(nn, path)

    return scenario


def _read(fs, nn):
    _file(nn, "/a/b/f", blocks=1, dns=(1,))
    return lambda: nn.get_block_locations("/a/b/f")


def _append(fs, nn):
    _file(nn, "/a/b/f", blocks=1, dns=(1,))
    nn.complete("/a/b/f", "c")
    return lambda: nn.append_file("/a/b/f", "c2")


def _block_received(fs, nn):
    (block_id,) = _file(nn, "/a/b/f", blocks=1)
    return lambda: nn.block_received(1, block_id, 4)


def _complete(fs, nn, block, extra):
    # target 1: every block finalized on 1 + extra datanodes
    _file(nn, "/a/b/f", blocks=block, dns=range(1, 2 + extra))
    return lambda: nn.complete("/a/b/f", "c")


def _set_replication(fs, nn, block, extra):
    # closed at target 3 on 1 + extra datanodes, then cut to 1
    _file(nn, "/a/b/f", blocks=block, dns=range(1, 2 + extra), replication=3)
    nn.complete("/a/b/f", "c")
    return lambda: nn.set_replication("/a/b/f", 1)


def _delete_file(fs, nn, block, replica):
    _file(nn, "/a/b/f", blocks=block, dns=range(1, 1 + replica),
          replication=replica)
    nn.complete("/a/b/f", "c")
    return lambda: nn.delete("/a/b/f")


def _report_bad_block(fs, nn, extra):
    # target 1: the corrupt replica on datanode 1, 1 + extra more
    (block_id,) = _file(nn, "/a/b/f", blocks=1, dns=range(1, 3 + extra))
    return lambda: nn.report_bad_block(block_id, 1)


def _content_summary(fs, nn, dir):
    nn.mkdirs("/a/b/s")
    for i in range(dir - 1):
        nn.mkdirs(f"/a/b/s/d{i}")
    return lambda: nn.content_summary("/a/b/s")


def _renew_lease(fs, nn):
    for i in range(2):
        nn.create(f"/a/b/f{i}", client="lc")
    return lambda: nn.renew_lease("lc")


def _recover_expired_leases(fs, nn):
    for i in range(2):
        _file(nn, f"/a/b/f{i}", blocks=1, dns=(1,))
    fs.config.clock.advance(2 * LEASE_TIMEOUT)
    return nn.recover_expired_leases


def _delete_subtree(fs, nn, node, block, replica):
    path = _subtree(nn, node, block, replica)
    return lambda: nn.delete_subtree(path)


def _subtree_release(fs, nn):
    ctx = nn._subtree_begin(_subtree(nn), "chmod")
    return lambda: nn._subtree_release(ctx)


def _block_report_add(fs, nn, block, extra):
    # target 1: datanode 1 reports blocks it holds no replica row of,
    # each finalized on extra other datanodes already
    block_ids = _file(nn, "/a/b/f", blocks=block, dns=range(2, 2 + extra))
    processor = BlockReportProcessor(nn)
    return lambda: processor.process(1, [(b, 4) for b in block_ids])


def _block_report_drop(fs, nn, extra):
    # target 1: datanode 1 reports nothing, its replica goes, 1 + extra stay
    _file(nn, "/a/b/f", blocks=1, dns=range(1, 3 + extra))
    processor = BlockReportProcessor(nn)
    return lambda: processor.process(1, [])


#: Where a warm run's path and its op's entry part, the case pins the
#: difference, named here with its cause.
#:
#: A file has no children to probe for: ``delete``, ``chmod`` and
#: ``chown`` of a file skip the probe their entries count for a directory.
FILE_SKIPS_PROBE = -1
#: A directory rename probes for children, which ``rename``'s entry, the
#: price of a file rename, does not count.
DIR_RENAME_PROBES = 1
#: ``{op}_subtree`` hands the root row it read on to
#: ``_subtree_clear_in_tx``, which then reads nothing; the entry counts
#: that read as well.
ROOT_HANDED_ON = -1
#: A delete batch holding a file with blocks scans its sub-rows (one
#: ``ppis_batch``); ``subtree_delete_batch``'s entry prices a batch of
#: files never written, whose ``sub_tables`` bits ask for no scan.
BATCH_SCANS_SUB_ROWS = 1


@dataclass(frozen=True)
class Case:
    """One warm run: the scenario builds what it needs and returns the
    action to measure; ``pins`` maps each op the action runs to one
    offset per transaction: each pays its op's budget at ``shape`` plus
    the offset."""

    scenario: Callable
    pins: dict[str, list[int]]
    shape: dict[str, int]


def _case(name: str, scenario: Callable, pins: dict[str, list[int]],
          **shape: int):
    return pytest.param(Case(scenario, pins, shape), id=name)


_SUBTREE_DELETE = {"delete_subtree_lock": [0], "subtree_quiesce": [0],
                   "delete_subtree_root": [0]}
_REPORT = {"block_report_lookup": [0], "block_report_dbview": [0]}

CASES = [
    _case("stat", _on_file(lambda nn, p: nn.get_file_info(p)),
          {"stat": [0]}),
    _case("read", _read, {"read": [0]}),
    _case("ls", _on_file(lambda nn, p: nn.list_status("/a/b")),
          {"ls": [0]}),
    _case("mkdirs", _on_empty_dir(lambda nn, p: nn.mkdirs(p + "/d")),
          {"mkdirs": [0]}),
    _case("create", _on_empty_dir(lambda nn, p: nn.create(p + "/f")),
          {"create": [0]}),
    _case("rename", _on_file(lambda nn, p: nn.rename(p, "/a/b/y")),
          {"rename": [0]}),
    _case("rename-empty-dir",
          _on_empty_dir(lambda nn, p: nn.rename(p, "/a/b/y")),
          {"rename": [DIR_RENAME_PROBES]}),
    _case("add_block", _on_file(lambda nn, p: nn.add_block(p, "c")),
          {"add_block": [0]}),
    _case("block_received", _block_received, {"block_received": [0]}),
    _case("append", _append, {"append": [0]}),
    _case("complete-b1e0", _complete, {"complete": [0]}, block=1, extra=0),
    _case("complete-b1e1", _complete, {"complete": [0]}, block=1, extra=1),
    _case("complete-b2e2", _complete, {"complete": [0]}, block=2, extra=2),
    _case("set_replication-b1e0", _set_replication,
          {"set_replication": [0]}, block=1, extra=0),
    _case("set_replication-b1e1", _set_replication,
          {"set_replication": [0]}, block=1, extra=1),
    _case("set_replication-b2e2", _set_replication,
          {"set_replication": [0]}, block=2, extra=2),
    _case("delete-file-b1r2", _delete_file,
          {"delete": [FILE_SKIPS_PROBE]}, block=1, replica=2),
    _case("delete-file-b2r3", _delete_file,
          {"delete": [FILE_SKIPS_PROBE]}, block=2, replica=3),
    _case("delete-empty-dir", _on_empty_dir(lambda nn, p: nn.delete(p)),
          {"delete": [0]}, block=0, replica=0),
    _case("chmod-file", _on_file(lambda nn, p: nn.set_permission(p, 0o600)),
          {"chmod": [FILE_SKIPS_PROBE]}),
    _case("chmod-empty-dir",
          _on_empty_dir(lambda nn, p: nn.set_permission(p, 0o700)),
          {"chmod": [0]}),
    _case("chown-file", _on_file(lambda nn, p: nn.set_owner(p, "u", "g")),
          {"chown": [FILE_SKIPS_PROBE]}),
    _case("chown-empty-dir",
          _on_empty_dir(lambda nn, p: nn.set_owner(p, "u", "g")),
          {"chown": [0]}),
    _case("renew_lease", _renew_lease, {"renew_lease": [0]}),
    _case("lease_recovery", _recover_expired_leases,
          {"lease_scan": [0], "lease_recovery": [0, 0]}),
    _case("set_xattr", _on_file(lambda nn, p: nn.set_xattr(p, "user.k", "v")),
          {"set_xattr": [0]}),
    _case("get_xattrs", _on_file(lambda nn, p: nn.get_xattrs(p), xattr=True),
          {"get_xattrs": [0]}),
    _case("remove_xattr",
          _on_file(lambda nn, p: nn.remove_xattr(p, "user.k"), xattr=True),
          {"remove_xattr": [0]}),
    _case("report_bad_block-e0", _report_bad_block,
          {"report_bad_block": [0]}, extra=0),
    _case("report_bad_block-e1", _report_bad_block,
          {"report_bad_block": [0]}, extra=1),
    _case("content_summary-d1", _content_summary,
          {"content_summary": [0]}, dir=1),
    _case("content_summary-d3", _content_summary,
          {"content_summary": [0]}, dir=3),
    _case("delete_subtree-n2b0r0", _delete_subtree,
          {**_SUBTREE_DELETE, "subtree_delete_batch": [0]},
          node=2, block=0, replica=0),
    _case("delete_subtree-n1b1r2", _delete_subtree,
          {**_SUBTREE_DELETE, "subtree_delete_batch": [BATCH_SCANS_SUB_ROWS]},
          node=1, block=1, replica=2),
    _case("delete_subtree-n2b2r1", _delete_subtree,
          {**_SUBTREE_DELETE, "subtree_delete_batch": [BATCH_SCANS_SUB_ROWS]},
          node=2, block=2, replica=1),
    _case("chmod_subtree",
          _on_subtree(lambda nn, p: nn.chmod_subtree(p, 0o700)),
          {"chmod_subtree_lock": [0], "subtree_quiesce": [0],
           "chmod_subtree": [ROOT_HANDED_ON]}),
    _case("chown_subtree",
          _on_subtree(lambda nn, p: nn.chown_subtree(p, "u", "g")),
          {"chown_subtree_lock": [0], "subtree_quiesce": [0],
           "chown_subtree": [ROOT_HANDED_ON]}),
    _case("set_quota", _on_subtree(lambda nn, p: nn.set_quota(p, 100, None)),
          {"set_quota_subtree_lock": [0], "subtree_quiesce": [0],
           "set_quota": [0]}),
    _case("move_subtree",
          _on_subtree(lambda nn, p: nn.move_subtree(p, "/a/c/t")),
          {"move_subtree_lock": [0], "subtree_quiesce": [0],
           "move_subtree": [0]}),
    _case("subtree_release", _subtree_release, {"subtree_release": [0]}),
    _case("block_report_add-b1e0", _block_report_add,
          {**_REPORT, "block_report_add": [0]}, block=1, extra=0),
    _case("block_report_add-b1e1", _block_report_add,
          {**_REPORT, "block_report_add": [0]}, block=1, extra=1),
    _case("block_report_add-b2e2", _block_report_add,
          {**_REPORT, "block_report_add": [0]}, block=2, extra=2),
    _case("block_report_drop-e0", _block_report_drop,
          {"block_report_dbview": [0], "block_report_drop": [0]}, extra=0),
    _case("block_report_drop-e1", _block_report_drop,
          {"block_report_dbview": [0], "block_report_drop": [0]}, extra=1),
]


def _pinned_shapes() -> dict[str, list[dict[str, int]]]:
    """Each ``OP_BUDGETS`` key the cases pin, with the shapes they pin it at."""
    shapes: dict[str, list[dict[str, int]]] = {}
    for param in CASES:
        (case,) = param.values
        for op in case.pins:
            shapes.setdefault(budget_for(op).op, []).append(case.shape)
    return shapes


class TestEveryBudget:
    """Every ``OP_BUDGETS`` entry, measured warm on each DAL driver."""

    @pytest.mark.parametrize("case", CASES)
    def test_a_warm_run_pays_its_budget(self, any_driver, case):
        nn = any_driver.namenodes[0]
        action = case.scenario(any_driver, nn, **case.shape)
        expected = {op: [_budget(op, **case.shape) + off for off in offs]
                    for op, offs in case.pins.items()}
        assert _spent(nn, action) == expected
        # nothing the namenode ran, the scenario's building included, is
        # an op the table does not price
        assert [op for op in _samples(nn) if budget_for(op) is None] == []

    def test_every_entry_is_pinned(self):
        assert sorted(_pinned_shapes()) == sorted(OP_BUDGETS)

    def test_each_symbol_is_pinned_at_two_values(self):
        """Each symbol of an entry at two values, each product of symbols
        at two combinations of non-zero values."""
        thin = []
        for key, shapes in _pinned_shapes().items():
            for product, _coeff in budget_for(key).cost.terms:
                for sym in product:
                    if len({shape[sym] for shape in shapes}) < 2:
                        thin.append((key, sym))
                combos = {tuple(shape[sym] for sym in product)
                          for shape in shapes}
                if len(product) > 1 and len(
                        [c for c in combos if all(c)]) < 2:
                    thin.append((key, "*".join(product)))
        assert thin == []


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
    assert cold_batched == warm_batched  # the same lock batch
    assert cold_total == _budget("create") + 3 == 6


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


def _subtree_txs(levels, batch: int) -> int:
    """Transactions of a root-update subtree op: phase 1, phase 3 and,
    per level of the walk, one per group of ``batch`` plain directories
    plus one per directory with hash-partitioned children."""
    return 2 + sum(-(-plain // batch) + hashed for plain, hashed in levels)


def _op_totals(nn) -> dict[str, float]:
    """``fs_op_total{op}``: the namenode's successful ops, by name."""
    return {dict(c.labels)["op"]: c.value for c in nn.metrics.counters()
            if c.name == "fs_op_total"}


class TestSubtreeTransactionCount:
    """How many transactions a subtree ``set_owner`` is — exact: the
    quiesce is one ``subtree_quiesce`` transaction (budget ``"1"``) per
    *group*, so the op's cost is its level shape, not its directory
    count."""

    @staticmethod
    def _chown_txs(nn, path):
        before = _op_totals(nn)
        nn.chown_subtree(path, "u", "g")
        spent = {op: n - before.get(op, 0)
                 for op, n in _op_totals(nn).items() if n != before.get(op, 0)}
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
                nn.create(f"/x/y/tree/p{parent}/d{leaf}/f", client="c")
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
                nn.create(f"/top/d{d}/e{leaf}/f", client="c")
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
              "ls_hashed": (3, 2), "create": (2, 2), "mkdirs": (2, 2),
              "set_permission": (2, 2), "rename": (4, 4), "delete": (2, 2)}

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
            with nn.recording() as stats:
                op()
            round_trips = stats.round_trips
            wrote = stats.count(AccessKind.COMMIT) > 0
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
                nn.create(f"/x/y/tree/p{parent}/d{leaf}/f", client="c")
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
