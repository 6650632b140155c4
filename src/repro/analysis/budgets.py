"""The per-operation warm round-trip budget table.

``OP_BUDGETS`` declares how many database round trips one warm run of
each ``_fs_op`` transaction pays — the paper's cost argument (§3.3,
Fig. 2) as a table. It is held to the code by measurement:
``tests/test_round_trip_budgets.py`` runs every operation warm on each
DAL driver, reads each transaction's count off the namenode's
``db_op_round_trips{op}`` histogram and pins it to the entry evaluated
at the run's workload sizes. A change that adds or removes a round
trip fails there, with the measured count.

Budgets are **warm** costs: hint caches populated, no retries, no cold
fallbacks. Costs are symbolic expressions over workload-size symbols,
e.g. ``"4 + block*replica"``: ``block`` blocks per file, ``replica``
replicas per block, ``extra`` replicas per block above the file's
target, ``node`` inodes per subtree-delete batch, ``dir`` directories
in a content summary (its root included). A plain integer means the
op's cost is constant. The grammar is sums of integer-coefficient
products: ``K`` | ``K*sym`` | ``sym*sym`` | ... (see :class:`Cost`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Declared warm round-trip budget per operation, keyed by the ``_fs_op``
#: name (f-string op names keep their template form, e.g.
#: ``"{op}_subtree_lock"``). Read-only ops pay their reads only; mutating
#: ops additionally pay the commit's flush+commit pair (+2), already
#: folded into these numbers.
OP_BUDGETS: dict[str, str] = {
    # -- ops_inode ------------------------------------------------------------
    "stat": "1",
    "mkdirs": "3",
    "create": "3",
    "read": "1",
    "ls": "1",
    "content_summary": "2 + dir",
    "add_block": "3",
    "block_received": "8",
    "complete": "3 + 2*block + 2*block*extra",
    "append": "3",
    "delete": "4 + block*replica",
    "rename": "5",
    "chmod": "4",
    "chown": "4",
    "set_replication": "3 + 2*block + 2*block*extra",
    "renew_lease": "3",
    "lease_scan": "1",
    "lease_recovery": "5",
    "set_xattr": "3",
    "get_xattrs": "1",
    "remove_xattr": "3",
    "report_bad_block": "9 + 2*extra",
    # -- ops_subtree ----------------------------------------------------------
    "move_subtree": "5",
    "set_quota": "4",
    "{op}_subtree_lock": "4",
    "subtree_quiesce": "1",
    "delete_subtree_root": "3",
    "subtree_delete_batch": "3 + node*block*replica",
    "{op}_subtree": "4",
    "subtree_release": "3",
    # -- blockreport ----------------------------------------------------------
    "block_report_lookup": "1",
    "block_report_dbview": "1",
    "block_report_add": "4 + 6*block + 2*block*extra",
    "block_report_drop": "7 + 2*extra",
}


class BudgetError(ValueError):
    """A budget expression failed to parse."""


_TERM_RE = re.compile(r"^\s*(?:(?P<coeff>\d+)\s*(?:\*\s*)?)?"
                      r"(?P<syms>[A-Za-z_][A-Za-z0-9_]*"
                      r"(?:\s*\*\s*[A-Za-z_][A-Za-z0-9_]*)*)?\s*$")


@dataclass(frozen=True)
class Cost:
    """A symbolic warm round-trip count.

    ``const`` plus a sum of integer-coefficient products of symbols;
    ``terms`` pairs each product (a sorted symbol tuple) with its
    coefficient, e.g. ``"3 + 8*node + node*block"`` parses to
    ``Cost(3, ((("block", "node"), 1), (("node",), 8)))``.
    """

    const: int = 0
    terms: tuple[tuple[tuple[str, ...], int], ...] = ()

    @staticmethod
    def parse(text: str) -> "Cost":
        """Parse ``"3 + 8*node + node*block"`` (whitespace-tolerant)."""
        const = 0
        terms: dict[tuple[str, ...], int] = {}
        for part in str(text).split("+"):
            match = _TERM_RE.match(part)
            if match is None or (match.group("coeff") is None
                                 and match.group("syms") is None):
                raise BudgetError(f"bad budget term {part.strip()!r} "
                                  f"in {text!r}")
            coeff = int(match.group("coeff") or 1)
            syms = match.group("syms")
            if syms is None:
                const += coeff
            else:
                key = tuple(sorted(s.strip() for s in syms.split("*")))
                terms[key] = terms.get(key, 0) + coeff
        return Cost(const, tuple(sorted(
            (syms, coeff) for syms, coeff in terms.items() if coeff)))

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(s for syms, _ in self.terms for s in syms)

    def render(self) -> str:
        parts = []
        if self.const or not self.terms:
            parts.append(str(self.const))
        for syms, coeff in self.terms:
            product = "*".join(syms)
            parts.append(product if coeff == 1 else f"{coeff}*{product}")
        return " + ".join(parts)

    def evaluate(self, **bounds: int) -> int:
        """Concrete value with each symbol bound to a workload size."""
        total = self.const
        for syms, coeff in self.terms:
            value = coeff
            for sym in syms:
                if sym not in bounds:
                    raise BudgetError(f"no bound supplied for symbol "
                                      f"{sym!r} in {self.render()!r}")
                value *= bounds[sym]
            total += value
        return total


@dataclass(frozen=True)
class Budget:
    """One declared budget entry."""

    op: str            # declared key, possibly a template ("{op}_subtree")
    expr: str
    cost: Cost = field(compare=False)

    def matches(self, op_name: str) -> bool:
        if "{" not in self.op:
            return self.op == op_name
        if self.op == op_name:
            # a templated op root (f-string op name) matches its own entry
            return True
        pattern = re.escape(self.op)
        pattern = re.sub(r"\\\{[^}]*\\\}", r"[A-Za-z0-9_]+", pattern)
        return re.fullmatch(pattern, op_name) is not None


def budget_table() -> list[Budget]:
    return [Budget(op, expr, Cost.parse(expr))
            for op, expr in OP_BUDGETS.items()]


def budget_for(op_name: str) -> Budget | None:
    """The budget entry for ``op_name`` (exact match wins over template)."""
    table = budget_table()
    for budget in table:
        if "{" not in budget.op and budget.op == op_name:
            return budget
    for budget in table:
        if "{" in budget.op and budget.matches(op_name):
            return budget
    return None
