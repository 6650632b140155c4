"""HFS106: the lock order of batches and of helpers called in loops.

Extends HFS102's per-function lock-order checks in two parts:

1. **Batched-acquisition proof obligations.** Every call site of
   ``acquire_many`` / ``_lock_many`` / ``delete_batch`` /
   ``read_batch(..., lock=/locks=)`` locks a whole key iterable at
   once, so the iterable itself must be provably sorted (a
   ``sorted(...)`` call, a name assigned from one, or a
   comprehension/slice over such a name). Sites whose order comes from
   a caller contract instead (the DAL internals, the resolver's
   root-down path order) carry explicit waivers quoting that contract.

2. **Loop-context propagation.** A helper that acquires locks (itself
   or through the helpers it calls), called from a loop over an
   *unsorted* iterable with the loop variable as an argument, acquires
   per-item locks in caller order — the same bug HFS102 flags for
   direct acquisitions in unsorted loops, one call level deeper. The
   helpers are followed from each ``_fs_op`` transaction callback
   (:func:`find_roots`), resolved by lexical scope first and then by
   name across the corpus.

Both are sortedness obligations, and the lock-order witness
(:mod:`repro.analysis.lockwitness`) sees a broken one only when some
test also takes the same rows in the opposite order. Part 2's unique
catches in the table of ``docs/static_analysis.md``: ``complete``
calling its locking block helpers over unsorted blocks, and a
decommission drain locking id-resolved inodes in one transaction. Part
1's two rows were caught by the witness too, each only because the
subtree quiesce happens to lock the same rows in pk order. A lock
*upgrade* is not checked here: one transaction's S→X upgrade does not
depend on another test, so the witness sees it on every path a test
runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.linter import (
    _acquisition_of,
    _LockOrderChecker,
    _lockmode_name,
)

#: call attrs that lock a whole key iterable in one shot (the keys are
#: their second argument)
_BATCH_LOCKERS = frozenset({"acquire_many", "_lock_many", "delete_batch"})

#: how many calls deep part 2 follows a helper
_MAX_DEPTH = 3


@dataclass
class SourceFile:
    """One parsed module of the analyzed corpus."""

    path: str
    tree: ast.Module

    @staticmethod
    def parse(path: str, source: str) -> Optional["SourceFile"]:
        try:
            return SourceFile(path, ast.parse(source, filename=path))
        except SyntaxError:
            return None  # reported as HFS100 by the per-file lint


@dataclass(frozen=True)
class Problem:
    """An analysis finding, converted to a Violation by the linter."""

    path: str
    line: int
    col: int
    code: str
    message: str


@dataclass
class OpRoot:
    """One ``_fs_op(name, callback)`` site with its resolved callback."""

    func: ast.FunctionDef
    sf: SourceFile


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
                callback = child.args[1]
                if isinstance(callback, ast.Name):
                    for scope in reversed(scopes):
                        fn = scope.get(callback.id)
                        if fn is not None:
                            roots.append(OpRoot(fn, sf))
                            break
            walk(child, scopes)

    walk(sf.tree, (_local_defs(sf.tree),))
    return roots


def _def_index(files: Sequence[SourceFile],
               ) -> dict[str, list[tuple[SourceFile, ast.FunctionDef]]]:
    """Module-level functions and class methods, by name. Closures are
    deliberately *not* indexed (their names collide wildly, e.g. every
    op callback is called ``fn``); they are reached via lexical scope
    instead (:func:`_env_for`)."""
    defs: dict[str, list[tuple[SourceFile, ast.FunctionDef]]] = {}
    for sf in files:
        for node in sf.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((sf, node))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        defs.setdefault(sub.name, []).append((sf, sub))
    return defs


def _env_for(root: OpRoot) -> dict[str, tuple[SourceFile, ast.FunctionDef]]:
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


class _Collector(_LockOrderChecker):
    """Per-function pass: batch-site obligations + a lock/call summary.

    Reuses :class:`_LockOrderChecker`'s ordered traversal and
    sorted-name tracking; instead of emitting HFS102 violations it
    records whether the function locks and which helpers it calls with
    ``tx`` (with their loop context), and checks sortedness proofs at
    batched-acquisition sites with the tracker's live state.
    """

    def __init__(self, path: str, out: list[Problem]) -> None:
        super().__init__(path, out=[])  # HFS102 itself runs per file
        self.problems = out
        self.acquires = False
        #: (helper name, call, loop context) per call passing ``tx``
        self.calls: list[tuple[str, ast.Call, tuple]] = []

    # comprehensions over a sorted iterable preserve its order
    def _is_sorted_iter(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)) \
                and len(node.generators) == 1:
            return super()._is_sorted_iter(node.generators[0].iter) or \
                self._is_sorted_iter(node.generators[0].iter)
        return super()._is_sorted_iter(node)

    def _scan(self, node: ast.AST, loops) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            self._check_batch_site(sub)
            if _acquisition_of(sub) is not None:
                self.acquires = True
                continue
            name = self._tx_call_name(sub)
            if name is not None:
                self.calls.append((name, sub, self._loop_info(loops)))

    @staticmethod
    def _loop_info(loops) -> tuple[tuple[frozenset[str], bool], ...]:
        return tuple((frozenset(targets), is_sorted)
                     for targets, is_sorted in loops)

    @staticmethod
    def _tx_call_name(call: ast.Call) -> Optional[str]:
        passes_tx = (
            any(isinstance(a, ast.Name) and a.id == "tx" for a in call.args)
            or any(isinstance(kw.value, ast.Name) and kw.value.id == "tx"
                   for kw in call.keywords))
        if not passes_tx:
            return None
        if isinstance(call.func, ast.Name):
            return call.func.id
        if isinstance(call.func, ast.Attribute):
            return call.func.attr
        return None

    # -- part 1: batched-acquisition sorted obligations ---------------------------

    def _check_batch_site(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        keys_expr: Optional[ast.AST] = None
        if func.attr in _BATCH_LOCKERS and len(call.args) >= 2:
            keys_expr = call.args[1]
        elif func.attr == "read_batch" and len(call.args) >= 2:
            locked = False
            for kw in call.keywords:
                if kw.arg in ("lock", "locks"):
                    if _lockmode_name(kw.value) == "READ_COMMITTED":
                        continue
                    locked = True
            if locked:
                keys_expr = call.args[1]
        if keys_expr is None:
            return
        if not self._is_sorted_iter(keys_expr):
            self.problems.append(Problem(
                self.path, call.lineno, call.col_offset, "HFS106",
                f"{func.attr}() locks a batch of keys whose order is not "
                "provably sorted here; pass sorted(...) (or a name assigned "
                "from it) so the batch follows the global lock order "
                "(paper §3.4), or waive quoting the caller's ordering "
                "contract"))


class _Replayer:
    """Part 2: follows each op callback's helper calls."""

    def __init__(self, files: Sequence[SourceFile],
                 problems: list[Problem]) -> None:
        self._defs = _def_index(files)
        self.problems = problems
        self._summaries: dict[tuple[str, int], _Collector] = {}

    def _summary(self, path: str, fn: ast.AST) -> _Collector:
        key = (path, fn.lineno)
        if key not in self._summaries:
            collector = _Collector(path, self.problems)
            collector.check(fn)
            self._summaries[key] = collector
        return self._summaries[key]

    def _resolve(self, name: str, env) -> Optional[tuple[SourceFile, ast.AST]]:
        if name in env:
            return env[name]
        candidates = self._defs.get(name)
        return candidates[0] if candidates else None

    def replay(self, sf: SourceFile, fn: ast.AST, env, depth: int,
               seen: frozenset[tuple[str, int]]) -> bool:
        """Whether ``fn`` locks, itself or through a helper (to
        ``_MAX_DEPTH`` calls deep); flags each locking helper it calls
        per item from an unsorted loop."""
        key = (sf.path, fn.lineno)
        if key in seen or depth > _MAX_DEPTH:
            return False
        seen = seen | {key}
        summary = self._summary(sf.path, fn)
        locks = summary.acquires
        for name, call, loops in summary.calls:
            resolved = self._resolve(name, env)
            if resolved is None:
                continue
            c_sf, c_fn = resolved
            if self.replay(c_sf, c_fn, env if c_sf is sf else {},
                           depth + 1, seen):
                locks = True
                self._check_loop_call(sf, call, name, loops)
        return locks

    def _check_loop_call(self, sf: SourceFile, call: ast.Call, name: str,
                         loops) -> None:
        """A locking helper whose call sits in an unsorted loop."""
        arg_names = {n.id for a in list(call.args)
                     + [kw.value for kw in call.keywords]
                     for n in ast.walk(a) if isinstance(n, ast.Name)}
        for targets, is_sorted in reversed(loops):
            if arg_names & set(targets):
                if not is_sorted:
                    self.problems.append(Problem(
                        sf.path, call.lineno, call.col_offset, "HFS106",
                        f"{name}() acquires row locks and is called "
                        "per-item inside a loop over an unsorted iterable; "
                        "iterate sorted(...) so the interprocedural "
                        "acquisition order stays total (paper §3.4)"))
                break


def check(files: Sequence[SourceFile]) -> list[Problem]:
    """Run both HFS106 checks over the corpus; returns problems."""
    problems: list[Problem] = []
    replayer = _Replayer(files, problems)
    # part 1 runs per function over every file (including helpers that
    # no current op reaches), so obligations hold corpus-wide
    for sf in files:
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                replayer._summary(sf.path, node)
    # part 2 follows each op root's callback
    for sf in files:
        for root in find_roots(sf):
            replayer.replay(root.sf, root.func, _env_for(root), 0,
                            frozenset())
    return problems
