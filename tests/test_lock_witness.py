"""Unit tests for the runtime lock-order witness (lockdep analog, §3.4).

The recorder is driven directly through its hook entry points — the same
calls :class:`repro.ndb.locks.LockManager` and
:class:`repro.util.rwlock.ReadWriteLock` make when a witness is
installed — so a deliberate A→B / B→A inversion, a SHARED→EXCLUSIVE
upgrade, and the hierarchical-guard pruning (§5.2.1) are all exercised
without real threads or timing.
"""

import inspect
import threading
from contextlib import contextmanager

import pytest

from repro.analysis import lockwitness
from repro.analysis.lockwitness import LockWitness
from repro.metrics.registry import MetricsRegistry
from repro.ndb.locks import LockMode


class FakeManager:
    """Stands in for a LockManager; only needs to be weakref-able."""


def take(witness, manager, owner, key, mode="x"):
    witness.row_requested(manager, owner, key, mode)
    witness.row_granted(manager, owner, key, mode)


class TestCycleDetection:
    def test_inverted_order_reports_cycle(self):
        w = LockWitness()
        mgr = FakeManager()
        a, b = ("inodes", (1,)), ("inodes", (2,))
        take(w, mgr, "t1", a)
        take(w, mgr, "t1", b)  # t1: a -> b
        w.owner_released(mgr, "t1")
        take(w, mgr, "t2", b)
        take(w, mgr, "t2", a)  # t2: b -> a
        w.owner_released(mgr, "t2")
        report = w.report()
        assert not report.ok
        assert len(report.cycles) == 1
        assert len(report.upgrades) == 0

    def test_consistent_order_is_clean(self):
        w = LockWitness()
        mgr = FakeManager()
        for owner in ("t1", "t2"):
            for key in ((1,), (2,), (3,)):
                take(w, mgr, owner, ("inodes", key))
            w.owner_released(mgr, owner)
        assert w.report().ok
        assert w.edge_count() > 0  # raw graph has edges; just no cycles

    def test_distinct_managers_never_form_cycles(self):
        # scope tokens keep per-cluster graphs disjoint
        w = LockWitness()
        m1, m2 = FakeManager(), FakeManager()
        take(w, m1, "t1", ("inodes", (1,)))
        take(w, m1, "t1", ("inodes", (2,)))
        w.owner_released(m1, "t1")
        take(w, m2, "t2", ("inodes", (2,)))
        take(w, m2, "t2", ("inodes", (1,)))
        w.owner_released(m2, "t2")
        assert w.report().cycles == []  # t2's own order is a rank fault

    def test_three_party_cycle(self):
        w = LockWitness()
        mgr = FakeManager()
        keys = [("t", (i,)) for i in range(3)]
        for i, owner in enumerate(("t1", "t2", "t3")):
            take(w, mgr, owner, keys[i])
            take(w, mgr, owner, keys[(i + 1) % 3])
            w.owner_released(mgr, owner)
        assert len(w.report().cycles) == 1


class TestUpgradeDetection:
    def test_shared_to_exclusive_flagged(self):
        w = LockWitness()
        mgr = FakeManager()
        key = ("inodes", (1,))
        take(w, mgr, "t1", key, mode="s")
        w.row_requested(mgr, "t1", key, "x")
        report = w.report()
        assert not report.ok
        assert len(report.upgrades) == 1
        assert report.upgrades[0].held_mode == "SHARED"

    def test_exclusive_re_request_is_not_an_upgrade(self):
        w = LockWitness()
        mgr = FakeManager()
        key = ("inodes", (1,))
        take(w, mgr, "t1", key, mode="x")
        w.row_requested(mgr, "t1", key, "x")
        w.row_requested(mgr, "t1", key, "s")
        assert w.report().ok

    def test_rwlock_read_to_write_flagged(self):
        w = LockWitness()

        class FakeRW:
            name = "gate"

        gate = FakeRW()
        w.rw_requested(gate, "read")
        w.rw_granted(gate, "read")
        w.rw_requested(gate, "write")
        report = w.report()
        assert len(report.upgrades) == 1
        assert report.upgrades[0].label == "gate"
        w.rw_released(gate, "read")


class TestReentrancy:
    def test_reentrant_request_adds_no_edges(self):
        # re-requesting a held lock is granted without blocking, so it
        # must not contribute wait-for edges (it caused false cycles
        # against transactions that touch the same rows once)
        w = LockWitness()
        mgr = FakeManager()
        a, b = ("inodes", (1,)), ("leases", (2,))
        take(w, mgr, "t1", a)
        take(w, mgr, "t1", b)
        before = w.edge_count()
        w.row_requested(mgr, "t1", a, "x")  # reentrant
        assert w.edge_count() == before


class TestGuardPruning:
    def test_common_guard_suppresses_cycle(self):
        # hierarchical locking (§5.2.1): both transactions hold the same
        # inode X lock while touching its sub-rows in opposite orders.
        # The guard serializes them, so the sub-row inversion cannot
        # deadlock and must not be reported.
        w = LockWitness()
        mgr = FakeManager()
        guard = ("inodes", (7,))
        s1, s2 = ("blocks", (7, 1)), ("replicas", (7, 1, 3))
        take(w, mgr, "t1", guard)
        take(w, mgr, "t1", s1)
        take(w, mgr, "t1", s2)
        w.owner_released(mgr, "t1")
        take(w, mgr, "t2", guard)
        take(w, mgr, "t2", s2)
        take(w, mgr, "t2", s1)
        w.owner_released(mgr, "t2")
        assert w.report().ok

    def test_unguarded_contender_restores_cycle(self):
        # same inversion, but a third transaction touches the sub-rows
        # WITHOUT the inode guard -- now the cycle is real
        w = LockWitness()
        mgr = FakeManager()
        guard = ("inodes", (7,))
        s1, s2 = ("blocks", (7, 1)), ("replicas", (7, 1, 3))
        take(w, mgr, "t1", guard)
        take(w, mgr, "t1", s1)
        take(w, mgr, "t1", s2)
        w.owner_released(mgr, "t1")
        take(w, mgr, "t2", guard)
        take(w, mgr, "t2", s2)
        take(w, mgr, "t2", s1)
        w.owner_released(mgr, "t2")
        take(w, mgr, "t3", s1)
        take(w, mgr, "t3", s2)
        w.owner_released(mgr, "t3")
        take(w, mgr, "t4", s2)
        take(w, mgr, "t4", s1)
        w.owner_released(mgr, "t4")
        assert len(w.report().cycles) == 1

    def test_shared_guard_does_not_prune(self):
        # only an exclusive guard serializes contenders
        w = LockWitness()
        mgr = FakeManager()
        guard = ("inodes", (7,))
        s1, s2 = ("blocks", (7, 1)), ("replicas", (7, 1, 3))
        take(w, mgr, "t1", guard, mode="s")
        take(w, mgr, "t1", s1)
        take(w, mgr, "t1", s2)
        w.owner_released(mgr, "t1")
        take(w, mgr, "t2", guard, mode="s")
        take(w, mgr, "t2", s2)
        take(w, mgr, "t2", s1)
        w.owner_released(mgr, "t2")
        assert len(w.report().cycles) == 1


class TestPauseAndPublish:
    def test_paused_records_nothing(self):
        w = LockWitness()
        mgr = FakeManager()
        with w.paused():
            take(w, mgr, "t1", ("inodes", (1,)))
            take(w, mgr, "t1", ("inodes", (2,)))
        assert w.edge_count() == 0

    def test_publish_exports_gauges(self):
        w = LockWitness()
        mgr = FakeManager()
        take(w, mgr, "t1", ("inodes", (1,)))
        take(w, mgr, "t1", ("inodes", (2,)))
        w.owner_released(mgr, "t1")
        take(w, mgr, "t2", ("inodes", (2,)))
        take(w, mgr, "t2", ("inodes", (1,)))
        registry = MetricsRegistry()
        w.publish(registry)
        gauges = {g.name: g.value for g in registry.gauges()}
        assert gauges["lock_witness_nodes"] == 2
        assert gauges["lock_witness_edges"] == 2
        assert gauges["lock_witness_cycles"] == 1
        assert gauges["lock_witness_upgrades"] == 0

    def test_report_renders_cycle_sites(self):
        w = LockWitness()
        mgr = FakeManager()
        take(w, mgr, "t1", ("inodes", (1,)))
        take(w, mgr, "t1", ("inodes", (2,)))
        w.owner_released(mgr, "t1")
        take(w, mgr, "t2", ("inodes", (2,)))
        take(w, mgr, "t2", ("inodes", (1,)))
        text = w.report().render()
        assert "CYCLE" in text
        assert "test_lock_witness.py" in text  # acquisition site sampled here


class TestInstallation:
    def test_install_hooks_real_locks(self):
        prev = lockwitness.current_witness()
        try:
            witness = lockwitness.install_witness()
            from repro.ndb import NDBCluster, NDBConfig
            from repro.ndb.schema import TableSchema

            cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2))
            cluster.create_table(TableSchema(
                name="t", columns=("k", "v"), primary_key=("k",)))
            try:
                def fn(tx):
                    tx.insert("t", {"k": 1, "v": "a"})
                    tx.insert("t", {"k": 2, "v": "b"})

                cluster.session().run(fn)
            finally:
                cluster.close()
            assert witness.edge_count() > 0
            assert witness.report().ok
        finally:
            # restore whatever the session-level plugin had installed
            from repro.ndb.locks import LockManager
            from repro.util.rwlock import ReadWriteLock

            LockManager._witness = prev
            ReadWriteLock._witness = prev
            lockwitness._current = prev

    def test_rwlock_reports_to_witness(self):
        prev = lockwitness.current_witness()
        try:
            witness = lockwitness.install_witness()
            from repro.util.rwlock import ReadWriteLock

            gate = ReadWriteLock(name="test_gate")
            with gate.read_locked():
                pass
            with gate.write_locked():
                pass
            labels = set(witness._labels.values())
            assert "test_gate" in labels
            assert witness.report().ok
        finally:
            from repro.ndb.locks import LockManager
            from repro.util.rwlock import ReadWriteLock

            LockManager._witness = prev
            ReadWriteLock._witness = prev
            lockwitness._current = prev


class TestUpgradeThroughTheResolver:
    def test_set_permission_resolving_shared_upgrades_at_its_update(
            self, monkeypatch):
        # row (a) of docs/static_analysis.md's "Which checker catches
        # what": the resolver's lock_last= takes the S lock and the
        # op's tx.update asks for X on the same row. No lint rule sees a
        # lock taken through the resolver; the witness is its one checker.
        from repro.hopsfs import HopsFSCluster
        from repro.hopsfs.ops_inode import InodeOpsMixin
        from repro.ndb.locks import LockManager, LockMode
        from repro.util.rwlock import ReadWriteLock

        fs = HopsFSCluster(num_namenodes=1, num_datanodes=1)
        fs.client("c").write_file("/f", b"x")
        nn = fs.any_namenode()
        resolve = nn.resolver.resolve

        def shared_last(tx, path, **kwargs):
            if kwargs.get("lock_last") is LockMode.EXCLUSIVE:
                kwargs["lock_last"] = LockMode.SHARED
            return resolve(tx, path, **kwargs)

        monkeypatch.setattr(nn.resolver, "resolve", shared_last)
        prev = lockwitness.current_witness()
        try:
            witness = lockwitness.install_witness()
            nn.set_permission("/f", 0o600)
        finally:
            LockManager._witness = prev
            ReadWriteLock._witness = prev
            lockwitness._current = prev
        lines, first = inspect.getsourcelines(InodeOpsMixin.set_permission)
        update = first + next(i for i, line in enumerate(lines)
                              if 'tx.update("inodes"' in line)
        [upgrade] = witness.report().upgrades
        assert (upgrade.held_mode, upgrade.wanted_mode) == (
            "SHARED", "EXCLUSIVE")
        assert upgrade.site == f"hopsfs/ops_inode.py:{update}"


class TestThreadBridging:
    def test_rw_after_rows_forms_edge(self):
        # commit takes the structure gate while still holding row locks;
        # the witness must bridge transaction-owned rows to thread-owned
        # rwlocks through the requesting thread
        w = LockWitness()
        mgr = FakeManager()

        class FakeRW:
            name = "structure_gate"

        gate = FakeRW()
        take(w, mgr, "t1", ("inodes", (1,)))
        w.rw_requested(gate, "read")
        w.rw_granted(gate, "read")
        assert w.edge_count() == 1
        w.rw_released(gate, "read")
        w.owner_released(mgr, "t1")

    def test_threads_have_independent_rw_state(self):
        w = LockWitness()

        class FakeRW:
            name = "gate"

        gate = FakeRW()
        w.rw_requested(gate, "read")
        w.rw_granted(gate, "read")

        def other():
            # a different thread requesting write is NOT an upgrade
            w.rw_requested(gate, "write")

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert w.report().ok


# -- the rank check (repro.hopsfs.schema.lock_rank), on a real cluster ----------

@contextmanager
def witnessing():
    """A fresh witness on every lock, the session's own put back after."""
    from repro.ndb.locks import LockManager
    from repro.util.rwlock import ReadWriteLock

    prev = lockwitness.current_witness()
    try:
        yield lockwitness.install_witness()
    finally:
        LockManager._witness = ReadWriteLock._witness = prev
        lockwitness._current = prev


class TestRankCheck:
    @pytest.fixture(scope="class")
    def fs(self):
        from repro.hopsfs import HopsFSCluster

        fs = HopsFSCluster(num_namenodes=1, num_datanodes=1)
        client = fs.client("c")
        client.mkdirs("/a/b/c")
        client.mkdirs("/z")
        return fs

    @staticmethod
    def rows(fs, path):
        """The inode rows of ``path``'s components, root-down."""
        tx = fs.driver.begin()
        try:
            return fs.any_namenode().resolver.resolve(tx, path).rows
        finally:
            tx.abort()

    @staticmethod
    def pk(row):
        return (row["part_key"], row["parent_id"], row["name"])

    def lock(self, fs, keys):
        """One transaction X-locking ``(table, pk)`` keys in this order;
        the rank faults it drew."""
        with witnessing() as witness:
            tx = fs.driver.begin()
            try:
                for table, pk in keys:
                    tx.read(table, pk, lock=LockMode.EXCLUSIVE)
            finally:
                tx.abort()
        return witness.report().rank_faults

    def test_a_lock_above_a_deeper_one_is_flagged(self, fs):
        a, b = self.rows(fs, "/a/b")
        [fault] = self.lock(fs, [("inodes", self.pk(b)),
                                 ("inodes", self.pk(a))])
        assert fault.label == f"row {('inodes', self.pk(a))!r}"
        assert fault.after == f"row {('inodes', self.pk(b))!r}"
        assert "tests/test_lock_witness.py:" in fault.site

    def test_depth_outranks_the_pk(self, fs):
        # /z sorts after /a/b/c by pk, but is shallower: it goes first
        *_, c = self.rows(fs, "/a/b/c")
        [z] = self.rows(fs, "/z")
        assert self.pk(z) > self.pk(c)
        assert self.lock(fs, [("inodes", self.pk(z)),
                              ("inodes", self.pk(c))]) == []
        assert len(self.lock(fs, [("inodes", self.pk(c)),
                                  ("inodes", self.pk(z))])) == 1

    def test_a_reentrant_request_is_not_flagged(self, fs):
        a, b = self.rows(fs, "/a/b")
        assert self.lock(fs, [("inodes", self.pk(a)), ("inodes", self.pk(b)),
                              ("inodes", self.pk(a))]) == []

    def test_a_root_down_path_passes(self, fs):
        rows = self.rows(fs, "/a/b/c")
        assert self.lock(fs, [("inodes", self.pk(row))
                              for row in rows]) == []
        with witnessing() as witness:  # as one batch, as a resolve takes it
            fs.any_namenode().mkdirs("/a/b/c/d/e")
            fs.any_namenode().rename("/a/b/c/d", "/z/d")
        assert witness.report().ok, witness.report().render()

    def test_a_multi_level_mkdirs_locks_its_ancestor_first(self, fs):
        # the ancestor's mtime update X-locks it before the rows inserted
        # below it: after them, mkdirs /y/p/q against rename /x -> /y/p
        # could each hold the row the other waits for
        fs.any_namenode().mkdirs("/y")
        with witnessing() as witness:
            fs.any_namenode().mkdirs("/y/p/q/r")
        assert witness.report().ok, witness.report().render()

    def test_rows_the_transaction_inserted_give_the_depth(self, fs):
        [a] = self.rows(fs, "/a")
        nn = fs.any_namenode()
        with witnessing() as witness:
            tx = fs.driver.begin()
            try:
                parent = nn.resolver.root_row()
                for name in ("n", "m"):  # /n, then /n/m under it
                    row = nn._new_inode_row(parent, name, depth=0,
                                            is_dir=True, perm=0o755,
                                            owner="o", group="g")
                    tx.insert("inodes", row)
                    parent = row
                tx.read("inodes", self.pk(a), lock=LockMode.EXCLUSIVE)
            finally:
                tx.abort()
        [fault] = witness.report().rank_faults
        assert fault.label == f"row {('inodes', self.pk(a))!r}"
        assert "'m')" in fault.after

    def test_an_inodes_rows_rank_within_the_inode(self, fs):
        [a] = self.rows(fs, "/a")
        [z] = self.rows(fs, "/z")
        low, high = sorted((a["id"], z["id"]))
        # under the files' inode locks (depth 1 both: in pk order)
        inodes = sorted([("inodes", self.pk(a)), ("inodes", self.pk(z))])
        assert self.lock(fs, inodes + [("xattrs", (high, "k")),
                                       ("xattrs", (low, "k"))]) == []
        assert self.lock(fs, inodes + [("xattrs", (low, "k")),
                                       ("blocks", (low, 9)),
                                       ("xattrs", (high, "a"))]) == []
        [fault] = self.lock(fs, inodes + [("xattrs", (low, "z")),
                                          ("xattrs", (low, "a"))])
        assert fault.label == f"row {('xattrs', (low, 'a'))!r}"

    def test_without_an_inode_lock_a_files_rows_rank_by_pk(self, fs):
        # the leader's sweeps take many files' rows and no inode lock
        assert self.lock(fs, [("prb", (3, 9)), ("urb", (3, 9)),
                              ("prb", (4, 1)), ("urb", (4, 1))]) == []
        [fault] = self.lock(fs, [("urb", (4, 1)), ("urb", (3, 9))])
        assert fault.label == f"row {('urb', (3, 9))!r}"
        assert fault.after == f"row {('urb', (4, 1))!r}"

    def test_an_inode_after_another_table_is_flagged(self, fs):
        [a] = self.rows(fs, "/a")
        [fault] = self.lock(fs, [("xattrs", (a["id"], "k")),
                                 ("inodes", self.pk(a))])
        assert fault.label == f"row {('inodes', self.pk(a))!r}"

    def test_other_tables_rank_by_pk(self, fs):
        assert self.lock(fs, [("quotas", (5,)), ("quotas", (7,))]) == []
        assert len(self.lock(fs, [("quotas", (7,)), ("quotas", (5,))])) == 1
        assert self.lock(fs, [("block_lookup", (7,)),
                              ("block_lookup", (5,))]) == []  # unranked

    def test_the_report_carries_rank_faults(self, fs):
        a, b = self.rows(fs, "/a/b")
        with witnessing() as witness:
            tx = fs.driver.begin()
            tx.read("inodes", self.pk(b), lock=LockMode.EXCLUSIVE)
            tx.read("inodes", self.pk(a), lock=LockMode.EXCLUSIVE)
            tx.abort()
        report = witness.report()
        assert not report.ok
        assert "1 rank fault(s)" in report.render()
        assert "  RANK: row ('inodes'" in report.render()
        graph = witness.export_graph(report)
        assert graph["summary"]["rank_faults"] == 1
        assert graph["rank_faults"][0]["label"] == report.rank_faults[0].label
