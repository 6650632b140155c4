"""The shared per-operation round-trip budget table (HFS105).

One table, two consumers:

* the static analyzer (:mod:`repro.analysis.costs`) derives a symbolic
  warm round-trip bound for every ``_fs_op`` transaction callback in the
  budget scope (``hopsfs/ops_inode.py``, ``hopsfs/ops_subtree.py``,
  ``hopsfs/tx.py``, ``hopsfs/blockreport.py``) and fails the lint when
  the derived bound differs from the entry here;
* the runtime budget tests (``tests/test_round_trip_budgets.py``) read
  the same entries and pin the *measured* ``db_round_trips_total`` delta
  of each warm operation to them.

So a new helper that adds a round trip fails the linter immediately, and
an analyzer bug that undercounts fails the runtime pin — the two checks
keep each other honest.

Budgets are **warm** costs: hint caches populated, no retries, no cold
fallbacks (statements excluded with ``# rt: offpath(...)``), bounded
retry loops at their uncontended iteration count (``# rt: bound(...)``).

Costs are symbolic expressions over workload-size symbols, e.g.
``"4 + node*block*replica"`` — ``node`` rows deleted per subtree batch,
``block`` blocks per file, ``replica`` replicas per block. A plain
integer means the op's cost is constant. The grammar is sums of
integer-coefficient products: ``K`` | ``K*sym`` | ``sym*sym`` | ... (see
:class:`Cost`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: files whose ``_fs_op`` call sites define the budgeted operations
BUDGET_SCOPE_SUFFIXES = (
    "hopsfs/ops_inode.py",
    "hopsfs/ops_subtree.py",
    "hopsfs/tx.py",
    "hopsfs/blockreport.py",
)

#: Declared warm round-trip budget per operation, keyed by the ``_fs_op``
#: name (f-string op names keep their template form, e.g.
#: ``"{op}_subtree_lock"``). Read-only ops pay their reads only; mutating
#: ops additionally pay the commit's flush+commit pair (+2), already
#: folded into these numbers.
OP_BUDGETS: dict[str, str] = {
    # -- ops_inode ------------------------------------------------------------
    "stat": "1",
    "mkdirs": "4",
    "create": "4",
    "read": "1",
    "ls": "1",
    "content_summary": "2 + dir",
    "add_block": "4",
    "block_received": "8",
    "complete": "3 + 2*block + 2*block*extra",
    "append": "3",
    "delete": "5 + block*replica",
    "rename": "7",
    "chmod": "4",
    "chown": "4",
    "set_replication": "4 + 2*block + 2*block*extra",
    "renew_lease": "3",
    "lease_scan": "1",
    "lease_recovery": "5",
    "set_xattr": "3",
    "get_xattrs": "1",
    "remove_xattr": "3",
    "report_bad_block": "9 + 2*extra",
    # -- ops_subtree ----------------------------------------------------------
    "move_subtree": "7",
    "set_quota": "4",
    "{op}_subtree_lock": "4",
    "subtree_quiesce": "1",
    "delete_subtree_root": "5",
    "subtree_delete_batch": "4 + node*block*replica",
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
    ``terms`` maps a sorted symbol tuple (the product) to its
    coefficient, e.g. ``Cost(3, {("node",): 8, ("block", "node"): 1})``
    renders as ``"3 + 8*node + block*node"``. ``writes`` records whether
    the costed code buffers any writes (commit then pays the flush+commit
    pair; :meth:`with_commit` folds that in).
    """

    const: int = 0
    terms: tuple[tuple[tuple[str, ...], int], ...] = ()
    writes: bool = False

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def of(const: int = 0, terms: dict[tuple[str, ...], int] | None = None,
           writes: bool = False) -> "Cost":
        items = tuple(sorted(
            (tuple(sorted(syms)), coeff)
            for syms, coeff in (terms or {}).items() if coeff
        ))
        return Cost(const, items, writes)

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
        return Cost.of(const, terms)

    # -- views -----------------------------------------------------------------

    def _term_map(self) -> dict[tuple[str, ...], int]:
        return dict(self.terms)

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

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()

    # -- algebra ---------------------------------------------------------------

    def add(self, other: "Cost") -> "Cost":
        terms = self._term_map()
        for syms, coeff in other.terms:
            terms[syms] = terms.get(syms, 0) + coeff
        return Cost.of(self.const + other.const, terms,
                       self.writes or other.writes)

    def add_const(self, n: int) -> "Cost":
        return Cost.of(self.const + n, self._term_map(), self.writes)

    def mul_const(self, n: int) -> "Cost":
        if n == 0:
            return Cost.of(0, None, self.writes)
        return Cost.of(self.const * n,
                       {syms: coeff * n for syms, coeff in self.terms},
                       self.writes)

    def mul_symbol(self, symbol: str) -> "Cost":
        """Widen to ``symbol`` iterations: every term picks up ``symbol``."""
        terms: dict[tuple[str, ...], int] = {}
        if self.const:
            terms[(symbol,)] = self.const
        for syms, coeff in self.terms:
            key = tuple(sorted(syms + (symbol,)))
            terms[key] = terms.get(key, 0) + coeff
        return Cost.of(0, terms, self.writes)

    def join(self, other: "Cost") -> "Cost":
        """Sound upper bound of two branches (pointwise max)."""
        terms = self._term_map()
        for syms, coeff in other.terms:
            terms[syms] = max(terms.get(syms, 0), coeff)
        return Cost.of(max(self.const, other.const), terms,
                       self.writes or other.writes)

    def with_commit(self) -> "Cost":
        """Fold in commit-time round trips: a transaction that buffered
        writes pays one batched flush plus the commit round (+2); a
        read-only transaction commits for free."""
        return self.add_const(2) if self.writes else self

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
