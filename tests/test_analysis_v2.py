"""Analysis-v2 fixtures: the budget table's cost expressions, HFS106
interprocedural lock discipline, waiver edge cases, and the lock-witness
graph export.

Like ``test_analysis_lint.py``, these drive the analyzers over small
synthetic modules; paths decide which rules apply.
"""

import json
import textwrap

from repro.analysis import interproc
from repro.analysis.budgets import BudgetError, Cost, budget_for
from repro.analysis.interproc import SourceFile
from repro.analysis.linter import lint_source
from repro.analysis.lockwitness import LockWitness

SCOPE = "synthetic/hopsfs/ops_inode.py"   # a module defining op callbacks
HELPER = "synthetic/hopsfs/helpers.py"    # helpers only


def parse(source: str, path: str = SCOPE) -> SourceFile:
    sf = SourceFile.parse(path, textwrap.dedent(source))
    assert sf is not None
    return sf


# -- budget expressions -----------------------------------------------------------


class TestCostModel:
    def test_parse_render_round_trip(self):
        for expr in ("0", "3", "2 + dir", "3 + block*node + 8*node"):
            assert Cost.parse(expr).render() == expr

    def test_parse_normalizes_term_order(self):
        assert Cost.parse("node*block + 1").render() == "1 + block*node"

    def test_evaluate_binds_symbols(self):
        cost = Cost.parse("3 + 8*node + node*block")
        assert cost.evaluate(node=2, block=5) == 3 + 16 + 10

    def test_evaluate_missing_symbol_raises(self):
        try:
            Cost.parse("1 + block").evaluate()
        except BudgetError as exc:
            assert "block" in str(exc)
        else:
            raise AssertionError("expected BudgetError")

    def test_budget_for_exact_and_template(self):
        assert budget_for("stat").op == "stat"
        assert budget_for("delete_subtree_lock").op == "{op}_subtree_lock"
        # a templated root (f-string op name) matches its own entry
        assert budget_for("{op}_subtree_lock").op == "{op}_subtree_lock"
        assert budget_for("no_such_op") is None


# -- HFS106: interprocedural lock discipline -------------------------------------


def interproc_codes(source: str, path: str = SCOPE):
    return [p.code for p in interproc.check([parse(source, path)])]


class TestHFS106:
    def test_unsorted_locked_batch_flagged(self):
        src = """
        def fn(tx, keys):
            return tx.read_batch("inodes", keys, lock=LockMode.SHARED)
        """
        assert interproc_codes(src) == ["HFS106"]

    def test_sorted_locked_batch_clean(self):
        src = """
        def fn(tx, keys):
            ordered = sorted(keys)
            return tx.read_batch("inodes", ordered, lock=LockMode.SHARED)
        """
        assert interproc_codes(src) == []

    def test_unlocked_batch_carries_no_obligation(self):
        src = """
        def fn(tx, keys):
            return tx.read_batch("inodes", keys)
        """
        assert interproc_codes(src) == []

    def test_locking_scans_order_their_own_acquisition(self):
        # the keys are found by the primitive, which sorts before it
        # locks: nothing for the call site to prove
        src = """
        def fn(tx, dirs):
            return tx.ppis_batch([("inodes", {"part_key": d}) for d in dirs],
                                 lock=LockMode.EXCLUSIVE)
        """
        assert interproc_codes(src) == []

    def test_unsorted_delete_batch_flagged(self):
        src = """
        def fn(tx, ids):
            tx.delete_batch("leases", [(i,) for i in ids])
        """
        assert interproc_codes(src) == ["HFS106"]

    def test_sorted_delete_batch_clean(self):
        src = """
        def fn(tx, nodes):
            ordered = sorted(nodes)
            tx.delete_batch("leases", sorted((n,) for n in nodes))
            tx.delete_batch("inodes", [node.pk for node in ordered])
        """
        assert interproc_codes(src) == []

    def test_acquire_many_obligation(self):
        src = """
        def fn(mgr, tx, keys):
            mgr.acquire_many(tx, keys, LockMode.EXCLUSIVE)
        """
        assert interproc_codes(src) == ["HFS106"]

    def test_cross_function_upgrade_flagged(self):
        src = """
        class Ops:
            def op(self, mgr):
                def fn(tx):
                    mgr.acquire(tx, ("inodes", 5), LockMode.SHARED)
                    bump(tx, ("inodes", 5))
                return self._fs_op("up_op", fn)

        def bump(tx, key):
            mgr.acquire(tx, key, LockMode.EXCLUSIVE)
        """
        problems = interproc.check([parse(src)])
        assert any(p.code == "HFS106"
                   and "cross-function SHARED->EXCLUSIVE" in p.message
                   for p in problems)

    def test_strongest_first_across_functions_clean(self):
        src = """
        class Ops:
            def op(self, mgr):
                def fn(tx):
                    mgr.acquire(tx, ("inodes", 5), LockMode.EXCLUSIVE)
                    bump(tx, ("inodes", 5))
                return self._fs_op("up_op", fn)

        def bump(tx, key):
            mgr.acquire(tx, key, LockMode.EXCLUSIVE)
        """
        assert interproc.check([parse(src)]) == []

    def test_helper_locking_in_unsorted_loop_flagged(self):
        src = """
        class Ops:
            def op(self, keys):
                def fn(tx):
                    for k in keys:
                        bump(tx, k)
                return self._fs_op("loop_op", fn)

        def bump(tx, key):
            mgr.acquire(tx, key, LockMode.EXCLUSIVE)
        """
        problems = interproc.check([parse(src)])
        assert any(p.code == "HFS106" and "called\nper-item" not in p.message
                   and "per-item" in p.message for p in problems)

    def test_helper_locking_in_sorted_loop_clean(self):
        src = """
        class Ops:
            def op(self, keys):
                def fn(tx):
                    for k in sorted(keys):
                        bump(tx, k)
                return self._fs_op("loop_op", fn)

        def bump(tx, key):
            mgr.acquire(tx, key, LockMode.EXCLUSIVE)
        """
        assert interproc.check([parse(src)]) == []

    def test_helper_resolved_across_files(self):
        ops = parse("""
        class Ops:
            def op(self, mgr):
                def fn(tx):
                    mgr.acquire(tx, ("inodes", 9), LockMode.SHARED)
                    helper_bump(tx, ("inodes", 9))
                return self._fs_op("x_op", fn)
        """)
        helpers = parse("""
        def helper_bump(tx, key):
            mgr.acquire(tx, key, LockMode.EXCLUSIVE)
        """, path=HELPER)
        problems = interproc.check([ops, helpers])
        assert any(p.code == "HFS106"
                   and "cross-function SHARED->EXCLUSIVE" in p.message
                   for p in problems)


# -- waiver edge cases ------------------------------------------------------------


HOT = "src/repro/hopsfs/ops_inode.py"


def lint(source: str, path: str = HOT):
    return lint_source(textwrap.dedent(source), path)


class TestDeleteBatchIsAnXLock:
    def test_per_item_delete_batch_in_an_unsorted_loop_flagged(self):
        src = """
        def fn(tx, ids):
            for inode_id in ids:
                tx.delete_batch("leases", [(inode_id,)])
        """
        assert [v.code for v in lint(src)] == ["HFS102"]

    def test_shared_then_delete_batch_is_an_upgrade(self):
        src = """
        def fn(tx, keys):
            tx.read_batch("inodes", keys, lock=LockMode.SHARED)
            tx.delete_batch("inodes", keys)
        """
        assert "HFS102" in [v.code for v in lint(src)]


class TestWaiverEdgeCases:
    def test_multi_rule_waiver_suppresses_both(self):
        src = """
        def fn(session):
            return session.full_scan("leases")  # hfs: allow(HFS101, HFS103, reason=leader-only audit)
        """
        assert lint(src) == []

    def test_multi_rule_waiver_does_not_overreach(self):
        src = """
        def fn(session):
            return session.full_scan("leases")  # hfs: allow(HFS101, reason=leader-only audit)
        """
        assert [v.code for v in lint(src)] == ["HFS103"]

    def test_waiver_on_decorator_line_covers_the_def(self):
        src = """
        @decorated  # hfs: allow(HFS101, reason=test fixture)
        def fn(tx): return tx.full_scan("leases")
        """
        assert lint(src) == []

    def test_waiver_above_decorator_covers_the_def(self):
        src = """
        # hfs: allow(HFS101, reason=test fixture)
        @decorated
        def fn(tx): return tx.full_scan("leases")
        """
        assert lint(src) == []

    def test_unknown_rule_in_multi_waiver_is_hfs100(self):
        src = """
        def fn(tx):
            return tx.full_scan("leases")  # hfs: allow(HFS101, HFS999, reason=nope)
        """
        violations = lint(src)
        assert [v.code for v in violations] == ["HFS100", "HFS101"]
        assert "HFS999" in violations[0].message


# -- lock-witness graph export ----------------------------------------------------


class _FakeManager:
    """Scope token holder (plain object() cannot be weak-referenced)."""


class TestWitnessExport:
    def _cycle_witness(self):
        """A two-lock witness with an A->B / B->A ordering conflict."""
        witness = LockWitness()
        mgr = _FakeManager()
        witness.row_requested(mgr, "tx1", ("inodes", 1), "x")
        witness.row_granted(mgr, "tx1", ("inodes", 1), "x")
        witness.row_requested(mgr, "tx2", ("inodes", 2), "x")
        witness.row_granted(mgr, "tx2", ("inodes", 2), "x")
        witness.row_requested(mgr, "tx1", ("inodes", 2), "x")  # A -> B
        witness.row_requested(mgr, "tx2", ("inodes", 1), "x")  # B -> A
        return witness

    def test_cycle_reported(self):
        report = self._cycle_witness().report()
        assert len(report.cycles) == 1 and not report.ok
        assert len(report.components[0]) == 2

    def test_export_graph_flags_cycle_members(self):
        witness = self._cycle_witness()
        graph = witness.export_graph()
        assert graph["summary"]["cycles"] == 1
        assert all(node["in_cycle"] for node in graph["nodes"])
        assert all(edge["in_cycle"] for edge in graph["edges"])
        assert len(graph["cycles"][0]) == 2
        json.dumps(graph)  # JSON-serializable artifact

    def test_export_dot_highlights_cycle(self):
        dot = self._cycle_witness().export_dot()
        assert dot.startswith("digraph lock_order {")
        assert "color=red" in dot

    def test_clean_graph_exports_without_highlights(self):
        witness = LockWitness()
        mgr = _FakeManager()
        witness.row_requested(mgr, "tx1", ("inodes", 1), "x")
        witness.row_granted(mgr, "tx1", ("inodes", 1), "x")
        witness.row_requested(mgr, "tx1", ("inodes", 2), "x")
        graph = witness.export_graph()
        assert graph["summary"]["cycles"] == 0
        assert not any(node["in_cycle"] for node in graph["nodes"])
        assert "color=red" not in witness.export_dot()

    def test_dump_writes_artifacts(self, tmp_path):
        paths = self._cycle_witness().dump(str(tmp_path))
        assert [p.rsplit("/", 1)[-1] for p in paths] == [
            "lock-witness.json", "lock-witness.dot"]
        graph = json.loads((tmp_path / "lock-witness.json").read_text())
        assert graph["summary"]["cycles"] == 1
        assert "digraph" in (tmp_path / "lock-witness.dot").read_text()
