"""HFS105: static warm round-trip cost bounds (interprocedural).

Builds a call graph rooted at every ``_fs_op`` transaction callback in
the budget scope (:data:`repro.analysis.budgets.BUDGET_SCOPE_SUFFIXES`)
and symbolically counts DAL access round trips:

* ``tx.read`` / ``tx.read_batch`` / ``tx.ppis`` / ``tx.ppis_batch`` /
  ``tx.index_scan`` / ``tx.full_scan`` cost **1** round trip each (a
  batch is one trip regardless of fan-out, and a scan — single or
  batched — regardless of ``lock=``: the rows are locked and re-read
  inside the trip that found them);
* ``tx.insert`` / ``tx.update`` / ``tx.delete`` / ``tx.write`` are
  buffered — **0** round trips, but they mark the transaction as
  writing, and a writing transaction pays **+2** at commit (the batched
  flush plus the commit round);
* a call that passes ``tx`` onward is resolved by callee name across
  the analyzed corpus and inlined (max over same-named candidates,
  memoized, recursion widened to a symbolic ``rec`` term);
* loops multiply their body cost by a bound — an exact count for
  literal sequences and ``range(K)``, otherwise a workload symbol
  derived from the loop target (``for block in ...`` → ``block``),
  overridable with ``# rt: per(sym)`` / ``# rt: bound(K, reason=...)``;
* the walk follows the *warm* path: ``raise`` arms, ``except``
  handlers and ``# rt: offpath(...)`` statements are excluded, ``if``
  takes the max over the remaining branches, and context-dependent
  callees (the path resolver) are pinned per call site with
  ``# rt: cost(K, reason=...)``.

The derived bound of every op is checked against the declared entry in
:data:`repro.analysis.budgets.OP_BUDGETS` — the same table the runtime
budget tests pin against — and any mismatch, missing entry, stale entry
or unresolvable call is reported as an HFS105 violation.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis import budgets as budgets_mod
from repro.analysis.budgets import BUDGET_SCOPE_SUFFIXES, Cost, budget_for
from repro.analysis.waivers import RtNote, parse_rt_notes, rt_note_for

#: DAL accesses costing one database round trip
READ_METHODS = frozenset({"read", "read_batch", "ppis", "ppis_batch",
                          "index_scan", "full_scan"})
#: buffered DAL writes: zero round trips now, +2 at commit
WRITE_METHODS = frozenset({"insert", "update", "delete", "write"})

#: loop-target suffixes stripped when deriving a workload symbol
_SYMBOL_SUFFIXES = ("_id", "_pk", "_row", "_key", "_name")

_ZERO = Cost.of(0)


@dataclass
class SourceFile:
    """One parsed module plus its ``# rt:`` notes."""

    path: str
    tree: ast.Module
    notes: dict[int, RtNote]
    note_errors: list[tuple[int, str]]

    @staticmethod
    def parse(path: str, source: str) -> Optional["SourceFile"]:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None  # reported as HFS100 by the per-file lint
        notes, errors = parse_rt_notes(source)
        return SourceFile(path, tree, notes, errors)


@dataclass(frozen=True)
class OpRoot:
    """One ``_fs_op(name, callback)`` site with its resolved callback."""

    op: str                     # template form for f-string names
    path: str
    line: int
    col: int
    func: ast.FunctionDef = field(compare=False, hash=False)
    sf: SourceFile = field(compare=False, hash=False)


@dataclass(frozen=True)
class OpCost:
    """Derived warm bound of one operation."""

    op: str
    path: str
    line: int
    cost: Cost


@dataclass(frozen=True)
class Problem:
    """An analysis finding, converted to a Violation by the linter."""

    path: str
    line: int
    col: int
    code: str
    message: str


def _op_name_of(arg: ast.AST) -> Optional[str]:
    """The op name of an ``_fs_op`` site; f-strings keep ``{...}`` holes."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts = []
        for value in arg.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            elif isinstance(value, ast.FormattedValue):
                hole = (value.value.id
                        if isinstance(value.value, ast.Name) else "x")
                parts.append("{" + hole + "}")
        return "".join(parts)
    return None


def _local_defs(func: ast.AST) -> dict[str, ast.FunctionDef]:
    """``def``s in ``func``'s own scope (any statement depth, not nested
    functions' scopes)."""
    out: dict[str, ast.FunctionDef] = {}

    def scan(stmts: list) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[stmt.name] = stmt
                continue  # do not descend into the nested scope
            for child in ast.iter_child_nodes(stmt):
                body = getattr(child, "body", None)
                if isinstance(child, ast.stmt):
                    scan([child])
                elif isinstance(body, list):  # e.g. excepthandler
                    scan(body)

    body = getattr(func, "body", None)
    if isinstance(body, list):
        scan(body)
    return out


def find_roots(sf: SourceFile) -> list[OpRoot]:
    """Every ``_fs_op(name, callback)`` site whose callback is a local def.

    The callback argument is a bare name referring to a ``def`` in one of
    the lexically enclosing scopes (ops define ``def fn(tx): ...`` right
    above the ``_fs_op`` call).
    """
    roots: list[OpRoot] = []

    def walk(node: ast.AST, scopes: tuple[dict[str, ast.FunctionDef], ...]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scopes + (_local_defs(child),))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "_fs_op"
                    and len(child.args) >= 2):
                op = _op_name_of(child.args[0])
                callback = child.args[1]
                if op is not None and isinstance(callback, ast.Name):
                    for scope in reversed(scopes):
                        fn = scope.get(callback.id)
                        if fn is not None:
                            roots.append(OpRoot(op, sf.path, child.lineno,
                                                child.col_offset, fn, sf))
                            break
            walk(child, scopes)

    walk(sf.tree, (_local_defs(sf.tree),))
    return roots


def _symbol_for(name: str) -> str:
    sym = name.lstrip("_")
    for suffix in _SYMBOL_SUFFIXES:
        if sym.endswith(suffix) and len(sym) > len(suffix):
            sym = sym[: -len(suffix)]
            break
    return sym or "N"


def _target_symbol(target: ast.AST) -> str:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            return _symbol_for(node.id)
    return "N"


def _range_bound(call: ast.Call) -> Optional[int]:
    if not (isinstance(call.func, ast.Name) and call.func.id == "range"):
        return None
    args = call.args
    if len(args) == 1 and isinstance(args[0], ast.Constant) \
            and isinstance(args[0].value, int):
        return args[0].value
    if (len(args) == 2
            and all(isinstance(a, ast.Constant)
                    and isinstance(a.value, int) for a in args)):
        return max(0, args[1].value - args[0].value)
    return None


class CostAnalyzer:
    """Derives the warm round-trip :class:`Cost` of every op root."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        self.problems: list[Problem] = []
        #: module-level functions and class methods, by name — closures
        #: are deliberately *not* indexed (their names collide wildly,
        #: e.g. every op callback is called ``fn``); they are reached via
        #: lexical scope instead.
        self._defs: dict[str, list[tuple[SourceFile, ast.FunctionDef]]] = {}
        for sf in self.files:
            for node in sf.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._defs.setdefault(node.name, []).append((sf, node))
                elif isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                            self._defs.setdefault(sub.name, []).append(
                                (sf, sub))
        self._memo: dict[tuple[str, int], Cost] = {}
        self._visiting: set[tuple[str, int]] = set()

    # -- public ------------------------------------------------------------------

    def op_cost(self, root: OpRoot) -> OpCost:
        """Warm bound of one op: callback body plus commit accounting."""
        env = self._env_for(root)
        cost = self._func_cost(root.sf, root.func, env).with_commit()
        return OpCost(root.op, root.path, root.line, cost)

    # -- function summaries ------------------------------------------------------

    def _env_for(self, root: OpRoot) -> dict[str, tuple[SourceFile,
                                                        ast.FunctionDef]]:
        """Sibling closures lexically visible from the root callback."""
        env: dict[str, tuple[SourceFile, ast.FunctionDef]] = {}

        def walk(node: ast.AST, scope: dict) -> bool:
            local = {name: (root.sf, fn)
                     for name, fn in _local_defs(node).items()}
            if any(fn is root.func for _sf, fn in local.values()):
                env.update(scope | local)
                return True
            merged = scope | local
            return any(walk(child, merged)
                       for child in ast.iter_child_nodes(node))

        walk(root.sf.tree, {})
        return env

    def _func_cost(self, sf: SourceFile, func: ast.AST,
                   env: dict[str, tuple[SourceFile, ast.FunctionDef]],
                   ) -> Cost:
        key = (sf.path, func.lineno)
        if key in self._memo:
            return self._memo[key]
        if key in self._visiting:
            # recursion: widen to a symbolic term instead of diverging
            return Cost.of(0, {("rec",): 1})
        self._visiting.add(key)
        try:
            inner = dict(env)
            inner.update({name: (sf, fn)
                          for name, fn in _local_defs(func).items()})
            fall, ret = self._block(sf, func.body, inner)
            cost = _ZERO
            if fall is not None:
                cost = cost.join(fall)
            if ret is not None:
                cost = cost.join(ret)
        finally:
            self._visiting.discard(key)
        self._memo[key] = cost
        return cost

    # -- statement walk ----------------------------------------------------------

    def _block(self, sf: SourceFile, stmts: Sequence[ast.stmt], env,
               ) -> tuple[Optional[Cost], Optional[Cost]]:
        """(fall-through cost, early-return cost) of a statement list.

        ``None`` fall means no path falls off the end; ``None`` ret means
        no path returns early. Raising paths are dropped (cold).
        """
        fall: Optional[Cost] = _ZERO
        ret: Optional[Cost] = None
        for stmt in stmts:
            if fall is None:
                break
            if rt_note_for(sf.notes, stmt.lineno, "offpath") is not None:
                continue  # excluded from the warm bound
            f, r = self._stmt(sf, stmt, env)
            if r is not None:
                candidate = fall.add(r)
                ret = candidate if ret is None else ret.join(candidate)
            fall = fall.add(f) if f is not None else None
        return fall, ret

    def _stmt(self, sf: SourceFile, stmt: ast.stmt, env,
              ) -> tuple[Optional[Cost], Optional[Cost]]:
        if isinstance(stmt, ast.Return):
            return None, self._expr(sf, stmt.value, env)
        if isinstance(stmt, ast.Raise):
            return None, None  # cold path
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return _ZERO, None  # cost is paid where it is called
        if isinstance(stmt, ast.If):
            test = self._expr(sf, stmt.test, env)
            falls: list[Cost] = []
            rets: list[Cost] = []
            for branch in (stmt.body, stmt.orelse or None):
                if branch is None:
                    falls.append(_ZERO)  # empty else falls through
                    continue
                f, r = self._block(sf, branch, env)
                if f is not None:
                    falls.append(f)
                if r is not None:
                    rets.append(r)
            fall = None
            if falls:
                joined = falls[0]
                for other in falls[1:]:
                    joined = joined.join(other)
                fall = test.add(joined)
            ret = None
            if rets:
                joined = rets[0]
                for other in rets[1:]:
                    joined = joined.join(other)
                ret = test.add(joined)
            if fall is None and ret is None:
                return None, None  # every branch raises: cold
            return fall, ret
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            head = self._expr(sf, stmt.iter, env)
            return self._loop(sf, stmt, head, stmt.body, env,
                              iter_expr=stmt.iter, target=stmt.target)
        if isinstance(stmt, ast.While):
            # the test runs each iteration: fold it into the body
            head = _ZERO
            body = [ast.Expr(value=stmt.test)] + list(stmt.body)
            for synthetic in body[:1]:
                ast.copy_location(synthetic, stmt)
            return self._loop(sf, stmt, head, body, env,
                              iter_expr=None, target=None)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            cost = _ZERO
            for item in stmt.items:
                cost = cost.add(self._expr(sf, item.context_expr, env))
            f, r = self._block(sf, stmt.body, env)
            return (cost.add(f) if f is not None else None,
                    cost.add(r) if r is not None else None)
        if isinstance(stmt, ast.Try):
            # handlers are cold; body, else and finally are the warm path
            merged = list(stmt.body) + list(stmt.orelse) + list(stmt.finalbody)
            return self._block(sf, merged, env)
        if isinstance(stmt, ast.Assign):
            return self._expr(sf, stmt.value, env), None
        if isinstance(stmt, ast.AugAssign):
            return self._expr(sf, stmt.value, env), None
        if isinstance(stmt, ast.AnnAssign):
            return self._expr(sf, stmt.value, env), None
        if isinstance(stmt, ast.Expr):
            return self._expr(sf, stmt.value, env), None
        if isinstance(stmt, ast.Assert):
            return self._expr(sf, stmt.test, env), None
        if isinstance(stmt, ast.Delete):
            cost = _ZERO
            for target in stmt.targets:
                cost = cost.add(self._expr(sf, target, env))
            return cost, None
        return _ZERO, None  # Pass/Break/Continue/Import/Global/...

    def _loop(self, sf: SourceFile, stmt: ast.stmt, head: Cost,
              body: Sequence[ast.stmt], env,
              iter_expr: Optional[ast.AST], target: Optional[ast.AST],
              ) -> tuple[Optional[Cost], Optional[Cost]]:
        f, r = self._block(sf, body, env)
        body_cost = f if f is not None else _ZERO
        widened = self._widen(sf, stmt.lineno, body_cost, iter_expr, target)
        fall = head.add(widened)
        if getattr(stmt, "orelse", None):
            of, _orr = self._block(sf, stmt.orelse, env)
            if of is not None:
                fall = fall.add(of)
        ret = None
        if r is not None:
            # a return on the last of K iterations costs (K-1) full passes
            # plus the partial pass up to the return; with a symbolic bound
            # fall back to widened + r (sound, one pass looser)
            k = self._const_iterations(sf, stmt.lineno, iter_expr)
            if k is not None:
                ret = head.add(body_cost.mul_const(max(0, k - 1))).add(r)
            else:
                ret = head.add(widened).add(r)
        if f is None and r is None:
            return fall, None  # body always raises: loop is cold after head
        return fall, ret

    def _const_iterations(self, sf: SourceFile, line: int,
                          iter_expr: Optional[ast.AST]) -> Optional[int]:
        """The loop's iteration count when it is a known constant."""
        note = rt_note_for(sf.notes, line, ("bound", "per"))
        if note is not None:
            if note.kind == "bound":
                return note.value or 0
            return None
        if isinstance(iter_expr, (ast.Tuple, ast.List)):
            return len(iter_expr.elts)
        if isinstance(iter_expr, ast.Call):
            return _range_bound(iter_expr)
        return None

    def _widen(self, sf: SourceFile, line: int, body: Cost,
               iter_expr: Optional[ast.AST], target: Optional[ast.AST],
               ) -> Cost:
        """Multiply a loop body by its iteration bound."""
        note = rt_note_for(sf.notes, line, ("bound", "per"))
        if note is not None:
            if note.kind == "bound":
                return body.mul_const(note.value or 0)
            return body.mul_symbol(note.symbol or "N")
        if isinstance(iter_expr, (ast.Tuple, ast.List)):
            return body.mul_const(len(iter_expr.elts))
        if isinstance(iter_expr, ast.Call):
            bound = _range_bound(iter_expr)
            if bound is not None:
                return body.mul_const(bound)
        if target is not None:
            return body.mul_symbol(_target_symbol(target))
        return body.mul_symbol("N")

    # -- expression walk ---------------------------------------------------------

    def _expr(self, sf: SourceFile, node: Optional[ast.AST], env) -> Cost:
        if node is None:
            return _ZERO
        if isinstance(node, ast.Call):
            cost = self._call(sf, node, env)
            for arg in node.args:
                cost = cost.add(self._expr(sf, arg, env))
            for kw in node.keywords:
                cost = cost.add(self._expr(sf, kw.value, env))
            if isinstance(node.func, ast.Attribute):
                cost = cost.add(self._expr(sf, node.func.value, env))
            return cost
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension(sf, node, env)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return _ZERO
        cost = _ZERO
        for child in ast.iter_child_nodes(node):
            cost = cost.add(self._expr(sf, child, env))
        return cost

    def _comprehension(self, sf: SourceFile, node: ast.AST, env) -> Cost:
        if isinstance(node, ast.DictComp):
            cost = self._expr(sf, node.key, env).add(
                self._expr(sf, node.value, env))
        else:
            cost = self._expr(sf, node.elt, env)
        for gen in reversed(node.generators):
            for cond in gen.ifs:
                cost = cost.add(self._expr(sf, cond, env))
            cost = self._widen(sf, node.lineno, cost, gen.iter, gen.target)
            cost = cost.add(self._expr(sf, gen.iter, env))
        return cost

    def _call(self, sf: SourceFile, node: ast.Call, env) -> Cost:
        """Cost of the call itself (arguments are costed by the caller)."""
        note = rt_note_for(sf.notes, node.lineno, "cost")
        if note is not None:
            return Cost.of(note.value or 0)
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "tx"):
            if func.attr in READ_METHODS:
                return Cost.of(1)
            if func.attr in WRITE_METHODS:
                return Cost.of(0, writes=True)
            return _ZERO
        passes_tx = (
            any(isinstance(a, ast.Name) and a.id == "tx" for a in node.args)
            or any(isinstance(kw.value, ast.Name) and kw.value.id == "tx"
                   for kw in node.keywords))
        if not passes_tx:
            return _ZERO
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return _ZERO
        candidates: list[tuple[SourceFile, ast.FunctionDef]] = []
        if name in env:
            candidates = [env[name]]
        elif name in self._defs:
            candidates = self._defs[name]
        if not candidates:
            self.problems.append(Problem(
                sf.path, node.lineno, node.col_offset, "HFS105",
                f"cannot statically bound call to {name}() taking tx; "
                "make it resolvable or pin the site with "
                "'# rt: cost(K, reason=...)'"))
            return _ZERO
        cost: Optional[Cost] = None
        for c_sf, c_fn in candidates:
            summary = self._func_cost(c_sf, c_fn, env if c_sf is sf else {})
            cost = summary if cost is None else cost.join(summary)
        return cost if cost is not None else _ZERO


# -- driver ---------------------------------------------------------------------

def budget_table_path() -> str:
    return budgets_mod.__file__


def _budget_entry_line(op: str) -> int:
    """Line of ``op``'s entry in budgets.py (for stale-entry reports)."""
    needle = f'"{op}":'
    try:
        with open(budget_table_path(), encoding="utf-8") as handle:
            for lineno, text in enumerate(handle, start=1):
                if needle in text:
                    return lineno
    except OSError:  # pragma: no cover
        pass
    return 1


def in_budget_scope(path: str) -> bool:
    return path.replace(os.sep, "/").endswith(BUDGET_SCOPE_SUFFIXES)


def analyze(files: Sequence[SourceFile]) -> tuple[list[OpCost],
                                                  list[Problem]]:
    """Derive op bounds for the budget-scope files and check the table.

    Returns ``(op_costs, problems)``; ``problems`` contains bound
    mismatches, missing/stale table entries, unresolvable calls and
    malformed ``rt:`` notes (as HFS100).
    """
    analyzer = CostAnalyzer(files)
    scope_files = [sf for sf in files if in_budget_scope(sf.path)]
    op_costs: list[OpCost] = []
    matched_ops: set[str] = set()
    for sf in scope_files:
        for root in find_roots(sf):
            derived = analyzer.op_cost(root)
            op_costs.append(derived)
            budget = budget_for(root.op)
            if budget is None:
                analyzer.problems.append(Problem(
                    root.path, root.line, root.col, "HFS105",
                    f"op {root.op!r} has no entry in the round-trip budget "
                    "table (repro.analysis.budgets.OP_BUDGETS); derived "
                    f"warm bound is {derived.cost.render()!r}"))
                continue
            matched_ops.add(budget.op)
            if derived.cost.render() != budget.cost.render():
                analyzer.problems.append(Problem(
                    root.path, root.line, root.col, "HFS105",
                    f"op {root.op!r}: derived warm round-trip bound "
                    f"{derived.cost.render()!r} != declared budget "
                    f"{budget.expr!r} ({budget.op!r} in OP_BUDGETS) — "
                    "update the table (and the runtime pin) or fix the "
                    "regression"))
    covered = all(
        any(sf.path.replace(os.sep, "/").endswith(suffix)
            for sf in scope_files)
        for suffix in BUDGET_SCOPE_SUFFIXES)
    if covered:
        # all four scope files analyzed: stale entries are detectable
        for op in budgets_mod.OP_BUDGETS:
            if op not in matched_ops:
                analyzer.problems.append(Problem(
                    budget_table_path(), _budget_entry_line(op), 0, "HFS105",
                    f"stale budget entry {op!r}: no _fs_op site in the "
                    "budget scope defines this operation"))
    # malformed rt: notes are reported per-file by the linter (HFS100)
    return op_costs, analyzer.problems
