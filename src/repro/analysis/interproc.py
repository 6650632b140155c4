"""HFS106: interprocedural lock discipline.

Extends HFS102's per-function lock-order checks across call boundaries,
in three parts:

1. **Batched-acquisition proof obligations.** Every call site of
   ``acquire_many`` / ``_lock_many`` / ``delete_batch`` /
   ``read_batch(..., lock=/locks=)`` locks a whole key iterable at
   once, so the iterable itself must be provably sorted (a
   ``sorted(...)`` call, a name assigned from one, or a
   comprehension/slice over such a name). Sites whose order comes from
   a caller contract instead (the DAL internals, the resolver's
   root-down path order) carry explicit waivers quoting that contract.

2. **Cross-function S→X upgrades.** Each transaction callback's helper
   calls are inlined (depth-limited) with textual parameter
   substitution, building one acquisition sequence per operation; a key
   first locked SHARED and later EXCLUSIVE anywhere in that sequence is
   an upgrade HFS102 could not see because the two acquisitions live in
   different functions. Helper-local names that survive substitution are
   qualified (``helper:name``) so same-named locals in different
   functions never alias.

3. **Loop-context propagation.** A helper that acquires locks, called
   from a loop over an *unsorted* iterable with the loop variable as an
   argument, acquires per-item locks in caller order — the same bug
   HFS102 flags for direct acquisitions in unsorted loops, one call
   level deeper.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.costs import CostAnalyzer, Problem, SourceFile, find_roots
from repro.analysis.linter import (
    _acquisition_of,
    _LockOrderChecker,
    _lockmode_name,
)

#: call attrs that lock a whole key iterable in one shot (the keys are
#: their second argument)
_BATCH_LOCKERS = frozenset({"acquire_many", "_lock_many", "delete_batch"})

#: maximum helper-inlining depth for the replay
_MAX_DEPTH = 3

#: names never qualified during substitution (shared across functions or
#: not value-like)
_COMMON_NAMES = frozenset({"self", "tx", "LockMode", "None", "True",
                           "False", "fs_schema", "schema"})

_IDENT_OR_STRING_RE = re.compile(
    r"'[^']*'|\"[^\"]*\"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)")


@dataclass(frozen=True)
class LockEvent:
    """One (possibly inlined) lock acquisition in a replayed op."""

    key: str
    mode: str                 # 'SHARED' | 'EXCLUSIVE' | '?'
    path: str
    line: int
    col: int
    via: tuple[str, ...]      # helper chain from the op callback


class _Collector(_LockOrderChecker):
    """Per-function pass: batch-site obligations + a lock/call summary.

    Reuses :class:`_LockOrderChecker`'s ordered traversal and
    sorted-name tracking; instead of emitting HFS102 violations it
    records the acquisition/call sequence for the interprocedural
    replay, and checks sortedness proofs at batched-acquisition sites
    with the tracker's live state.
    """

    def __init__(self, path: str, out: list[Problem]) -> None:
        super().__init__(path, out=[])  # swallow the HFS102 duplicates
        self.problems = out
        self.items: list[tuple] = []    # ('acq'|'call', ...)

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
            acq = _acquisition_of(sub)
            if acq is not None:
                self.items.append(("acq", acq, sub, self._loop_info(loops)))
                continue
            name = self._tx_call_name(sub)
            if name is not None:
                self.items.append(("call", name, sub, self._loop_info(loops)))

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


def _collect(path: str, fn: ast.AST, out: list[Problem]) -> list[tuple]:
    collector = _Collector(path, out)
    collector.check(fn)
    return collector.items


# -- textual substitution --------------------------------------------------------

def _substitute(text: str, subst: dict[str, str], qualifier: str) -> str:
    """Rewrite identifiers through ``subst``; qualify the leftovers."""

    def repl(match: re.Match) -> str:
        ident = match.group("ident")
        if ident is None:
            return match.group(0)
        if ident in subst:
            return subst[ident]
        if ident in _COMMON_NAMES:
            return ident
        return f"{qualifier}:{ident}"

    return _IDENT_OR_STRING_RE.sub(repl, text)


def _arg_map(fn: ast.AST, call: ast.Call,
             caller_subst: dict[str, str], caller_name: str,
             ) -> dict[str, str]:
    """Map callee parameter names to caller argument text (substituted)."""
    params = [a.arg for a in fn.args.args]
    if params and params[0] == "self":
        params = params[1:]
    mapping: dict[str, str] = {}
    for param, arg in zip(params, call.args):
        mapping[param] = _substitute(ast.unparse(arg), caller_subst,
                                     caller_name)
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in [a.arg for a in fn.args.args]:
            mapping[kw.arg] = _substitute(ast.unparse(kw.value),
                                          caller_subst, caller_name)
    return mapping


def _event_key(call: ast.Call, acq) -> str:
    """Textual lock key including the table when the call names one."""
    table = ""
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            table = first.value + "/"
    return table + (acq.key_src or "?")


# -- part 2+3: interprocedural replay --------------------------------------------

class _Replayer:
    def __init__(self, files: Sequence[SourceFile],
                 problems: list[Problem]) -> None:
        self.analyzer = CostAnalyzer(files)
        self.problems = problems
        self._summaries: dict[tuple[str, int], list[tuple]] = {}

    def _summary(self, path: str, fn: ast.AST) -> list[tuple]:
        key = (path, fn.lineno)
        if key not in self._summaries:
            self._summaries[key] = _collect(path, fn, self.problems)
        return self._summaries[key]

    def _resolve(self, name: str, env) -> Optional[tuple[SourceFile, ast.AST]]:
        if name in env:
            return env[name]
        candidates = self.analyzer._defs.get(name)
        return candidates[0] if candidates else None

    def replay(self, sf: SourceFile, fn: ast.AST, env,
               subst: dict[str, str], via: tuple[str, ...],
               depth: int, seen: frozenset[tuple[str, int]],
               ) -> list[LockEvent]:
        key = (sf.path, fn.lineno)
        if key in seen or depth > _MAX_DEPTH:
            return []
        seen = seen | {key}
        events: list[LockEvent] = []
        for item in self._summary(sf.path, fn):
            if item[0] == "acq":
                _tag, acq, call, _loops = item
                text = _substitute(_event_key(call, acq), subst, fn.name)
                events.append(LockEvent(text, acq.mode, sf.path, acq.line,
                                        acq.col, via))
                continue
            _tag, name, call, loops = item
            resolved = self._resolve(name, env)
            if resolved is None:
                continue
            c_sf, c_fn = resolved
            child_subst = _arg_map(c_fn, call, subst, fn.name)
            child_events = self.replay(
                c_sf, c_fn, env if c_sf is sf else {}, child_subst,
                via + (name,), depth + 1, seen)
            self._check_loop_call(sf, call, name, loops, child_events)
            events.extend(child_events)
        return events

    def _check_loop_call(self, sf: SourceFile, call: ast.Call, name: str,
                         loops, child_events: list[LockEvent]) -> None:
        """Part 3: callee acquires locks, call sits in an unsorted loop."""
        if not child_events:
            return
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


def _check_upgrades(op: str, events: list[LockEvent],
                    problems: list[Problem]) -> None:
    """Part 2: SHARED→EXCLUSIVE on one key across function boundaries."""
    strongest: dict[str, LockEvent] = {}
    for event in events:
        if event.mode not in ("SHARED", "EXCLUSIVE"):
            continue
        prev = strongest.get(event.key)
        if (prev is not None and prev.mode == "SHARED"
                and event.mode == "EXCLUSIVE"
                and (prev.via != event.via or prev.path != event.path)):
            where = (f"{prev.path}:{prev.line}"
                     + (f" via {' -> '.join(prev.via)}" if prev.via else ""))
            chain = f" via {' -> '.join(event.via)}" if event.via else ""
            problems.append(Problem(
                event.path, event.line, event.col, "HFS106",
                f"cross-function SHARED->EXCLUSIVE upgrade on key "
                f"{event.key} in op {op!r}{chain}; first locked SHARED at "
                f"{where} — read at the strongest level up front "
                "(paper §3.4)"))
        if prev is None or prev.mode != "EXCLUSIVE":
            strongest[event.key] = event


def check(files: Sequence[SourceFile]) -> list[Problem]:
    """Run all HFS106 checks over the corpus; returns problems."""
    problems: list[Problem] = []
    replayer = _Replayer(files, problems)
    # part 1 runs per function over every file (including helpers that
    # no current op reaches), so obligations hold corpus-wide
    checked: set[tuple[str, int]] = set()
    for sf in files:
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and (sf.path, node.lineno) not in checked:
                checked.add((sf.path, node.lineno))
                replayer._summary(sf.path, node)
    # parts 2+3 replay each op root's callback
    for sf in files:
        for root in find_roots(sf):
            env = replayer.analyzer._env_for(root)
            events = replayer.replay(root.sf, root.func, env, {}, (), 0,
                                     frozenset())
            _check_upgrades(root.op, events, problems)
    return problems
