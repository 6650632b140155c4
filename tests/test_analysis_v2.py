"""Analysis-v2 fixtures: the budget table's cost expressions, waiver
edge cases, and the lock-witness graph export.

Like ``test_analysis_lint.py``, these drive the analyzers over small
synthetic modules; paths decide which rules apply.
"""

import json
import textwrap

from repro.analysis.budgets import BudgetError, Cost, budget_for
from repro.analysis.linter import lint_source
from repro.analysis.lockwitness import LockWitness


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


# -- waiver edge cases ------------------------------------------------------------


HOT = "src/repro/hopsfs/ops_inode.py"


def lint(source: str, path: str = HOT):
    return lint_source(textwrap.dedent(source), path)


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
