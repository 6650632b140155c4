"""AST linter enforcing the HopsFS transaction discipline.

Runs HFS100, HFS101, HFS103 and HFS104 per module. Pure stdlib
(``ast`` + ``tokenize``); see :mod:`repro.analysis.rules` for what each
rule means and :mod:`repro.analysis.waivers` for the inline
waiver/annotation grammar. The checks are deliberately syntactic — they
catch the regressions that are easy to introduce and hard to debug
dynamically (a stray ``full_scan`` on the hot path, a DAL call outside
a transaction callback) without trying to be a theorem prover; anything
legitimately outside the pattern carries a waiver with a written reason.

A rule stays for what the runtime checkers cannot be counted on to
catch (the table in ``docs/static_analysis.md``). The lock order is not
a rule: the lock witness ranks every row lock where it is taken
(:func:`repro.hopsfs.schema.lock_rank`). HFS104's unique catches are in
:class:`_GuardedByChecker`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.analysis.rules import (
    DAL_ACCESS_METHODS,
    GUARDED_SCOPE_FRAGMENTS,
    HOT_PATH_BANNED,
    HOT_PATH_SUFFIXES,
    LOCK_FACTORY_NAMES,
    MUTATOR_METHODS,
    PSEUDO_GUARDS,
    RULES,
    SESSION_NAME_HINTS,
)
from repro.analysis.waivers import is_waived, parse_guards, parse_waivers


@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


# -- shared AST helpers ---------------------------------------------------------

def _receiver_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """Attribute name for ``self.<x>`` (unwrapping subscript chains)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"):
        return node.attr
    return None


# -- HFS101: cheap access types only on hot paths ------------------------------

def _check_hot_path(tree: ast.AST, path: str, out: list[Violation]) -> None:
    norm = path.replace(os.sep, "/")
    if not norm.endswith(HOT_PATH_SUFFIXES):
        return
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in HOT_PATH_BANNED):
            out.append(Violation(
                path, node.lineno, node.col_offset, "HFS101",
                f"{node.func.attr}() fans out to every shard; hot-path "
                "modules may only use read/read_batch/ppis/ppis_batch "
                "(paper §3.3) — restructure the access or waive with a "
                "reason"))


# -- HFS103: DAL access only inside transaction callbacks ----------------------

class _SessionScopeChecker:
    """Flags DAL calls on raw sessions or on bare ``begin()`` handles."""

    def __init__(self, path: str, out: list[Violation]) -> None:
        self.path = path
        self.out = out

    def check(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        tainted: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not fn:
                continue
            if isinstance(node, ast.Assign) and self._is_begin(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
            if isinstance(node, ast.withitem) and self._is_begin(node.context_expr):
                if isinstance(node.optional_vars, ast.Name):
                    tainted.add(node.optional_vars.id)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method not in DAL_ACCESS_METHODS:
                    continue
                receiver = _receiver_name(node.func.value)
                if receiver is None:
                    continue
                if self._is_sessionish(receiver):
                    self.out.append(Violation(
                        self.path, node.lineno, node.col_offset, "HFS103",
                        f"DAL access {method}() on raw session "
                        f"{receiver!r}; run it inside a session.run(...) "
                        "callback so retries and stat merging apply"))
                elif receiver in tainted:
                    self.out.append(Violation(
                        self.path, node.lineno, node.col_offset, "HFS103",
                        f"DAL access {method}() on {receiver!r} obtained "
                        "from bare begin(); use session.run(...) (retries "
                        "on lock conflicts are skipped here)"))

    @staticmethod
    def _is_begin(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "begin")

    @staticmethod
    def _is_sessionish(receiver: str) -> bool:
        stripped = receiver.lstrip("_")
        return (stripped in SESSION_NAME_HINTS
                or stripped.endswith("_session") or stripped.endswith("_sess"))


def _check_session_scope(tree: ast.AST, path: str, out: list[Violation]) -> None:
    checker = _SessionScopeChecker(path, out)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            checker.check(node)


# -- HFS104: guarded_by annotations --------------------------------------------

class _GuardedByChecker:
    """Per-class check that shared mutable state says what guards it.

    The unique catches (docs/static_analysis.md, "Which checker catches
    what"): an attribute written outside ``__init__`` with no
    ``# guarded_by:`` annotation, which no runtime checker can see since
    the guard sanitizer instruments only annotated attributes; and an
    in-place write (an item store, or a mutator call such as
    ``self.x.append``) to a ``[writes]``-annotated attribute outside
    ``with self.<lock>``. The sanitizer sees a write only through
    ``__setattr__`` and checks no read of a ``[writes]`` attribute, so
    such a mutation is invisible to it. Every other access to an
    annotated attribute without its lock is the sanitizer's catch, from
    any module.
    """

    def __init__(self, path: str, guards_by_line, out: list[Violation]) -> None:
        self.path = path
        self.guards_by_line = guards_by_line
        self.out = out

    def check(self, cls: ast.ClassDef) -> None:
        init = next((n for n in cls.body
                     if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                    None)
        if init is None:
            return
        lock_attrs: set[str] = set()
        init_lines: dict[str, tuple[int, int]] = {}
        for node in ast.walk(init):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None or not isinstance(target, ast.Attribute):
                    continue
                init_lines.setdefault(attr, (node.lineno, node.col_offset))
                if (isinstance(value, ast.Call)
                        and _call_name(value.func) in LOCK_FACTORY_NAMES):
                    lock_attrs.add(attr)
        if not lock_attrs:
            return

        annotations: dict[str, object] = {}
        assign_lines = {line for line, _col in init_lines.values()}
        for attr, (line, _col) in init_lines.items():
            guard = self.guards_by_line.get(line)
            if guard is None and (line - 1) not in assign_lines:
                # a standalone comment line above the assignment; a trailing
                # comment on the *previous* assignment binds to that one only
                guard = self.guards_by_line.get(line - 1)
            if guard is not None:
                annotations[attr] = guard

        writes = [write for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name != "__init__"
                  for write in _writes(node, lock_attrs)]
        written = {write.attr for write in writes}
        for attr in sorted(written & (set(init_lines) - lock_attrs)):
            if attr not in annotations:
                line, col = init_lines[attr]
                self.out.append(Violation(
                    self.path, line, col, "HFS104",
                    f"shared mutable attribute {cls.name}.{attr} is written "
                    "outside __init__ but has no '# guarded_by:' annotation "
                    "(lock attr, 'GIL', or 'owner-thread')"))

        for attr, guard in sorted(annotations.items()):
            name = guard.name  # type: ignore[attr-defined]
            if name not in PSEUDO_GUARDS and name not in lock_attrs:
                line, col = init_lines[attr]
                self.out.append(Violation(
                    self.path, line, col, "HFS104",
                    f"guarded_by names {name!r}, which is not a lock "
                    f"attribute of {cls.name}"))
            elif name in lock_attrs and guard.writes_only:  # type: ignore[attr-defined]
                for write in writes:
                    if (write.attr == attr and write.in_place
                            and name not in write.held):
                        self.out.append(Violation(
                            self.path, write.node.lineno,
                            write.node.col_offset, "HFS104",
                            f"in-place write to {cls.name}.{attr} outside "
                            f"'with self.{name}' (annotated guarded_by: "
                            f"{name} [writes])"))


@dataclass
class _Write:
    attr: str
    node: ast.AST
    in_place: bool   # an item of it, or a mutator call on it
    held: frozenset[str]


def _writes(method: ast.AST, lock_attrs: set[str]) -> list[_Write]:
    """Each write to a ``self.<attr>`` in ``method``, with the locks held
    around it by ``with self.<lock>``: an assign, augment or delete of
    the attribute, of an item of it, or a mutator call on it
    (``self.x.append``)."""
    out: list[_Write] = []

    def visit(node: ast.AST, held: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # closures may run on other threads; not modelled
        if isinstance(node, (ast.With, ast.AsyncWith)):
            taken = {attr for item in node.items
                     for sub in ast.walk(item.context_expr)
                     if (attr := _self_attr(sub)) in lock_attrs}
            for item in node.items:
                visit(item.context_expr, held)
            for stmt in node.body:
                visit(stmt, held | taken)
            return
        targets: list[ast.AST] = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS):
            attr = _self_attr(node.func.value)
            if attr is not None:
                out.append(_Write(attr, node, True, held))
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                attr = _self_attr(target)
                if attr is not None:
                    out.append(_Write(attr, target,
                                      isinstance(target, ast.Subscript),
                                      held))
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in getattr(method, "body", []):
        visit(stmt, frozenset())
    return out


def _call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _check_guarded_by(tree: ast.AST, path: str, guards_by_line,
                      out: list[Violation]) -> None:
    norm = path.replace(os.sep, "/")
    if not any(fragment in norm for fragment in GUARDED_SCOPE_FRAGMENTS):
        return
    checker = _GuardedByChecker(path, guards_by_line, out)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            checker.check(node)


# -- driver --------------------------------------------------------------------

def _decorator_alias_lines(tree: ast.AST) -> dict[int, tuple[int, ...]]:
    """Map a decorated ``def``/``class`` line to its decorator lines.

    A waiver sitting on (or directly above) a decorator then also covers
    violations reported on the decorated definition's own line.
    """
    aliases: dict[int, tuple[int, ...]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.decorator_list:
            lines = sorted({d.lineno for d in node.decorator_list})
            aliases[node.lineno] = tuple(lines + [lines[0] - 1])
    return aliases


def lint_source(source: str, path: str) -> list[Violation]:
    """Lint one module's source; ``path`` decides which rules apply.

    Runs the rules (HFS101, HFS103, HFS104) plus the waiver/annotation
    grammar checks.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 1, exc.offset or 0, "HFS100",
                          f"syntax error: {exc.msg}")]
    waivers, waiver_errors = parse_waivers(source, frozenset(RULES))
    guards, guard_errors = parse_guards(source)
    alias_lines = _decorator_alias_lines(tree)

    raw: list[Violation] = []
    _check_hot_path(tree, path, raw)
    _check_session_scope(tree, path, raw)
    _check_guarded_by(tree, path, guards, raw)

    violations = [v for v in raw
                  if not is_waived(waivers, v.code, v.line, alias_lines)]
    for line, message in waiver_errors + guard_errors:
        violations.append(Violation(path, line, 0, "HFS100", message))
    violations.sort(key=lambda v: (v.line, v.col, v.code))
    return violations


def iter_python_files(paths: Iterable[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__pycache__")))
                files.extend(os.path.join(root, n) for n in sorted(names)
                             if n.endswith(".py"))
        elif path.endswith(".py"):
            files.append(path)
    return files


def lint_paths(paths: Sequence[str]) -> list[Violation]:
    """Every rule over every Python file under ``paths``."""
    violations: list[Violation] = []
    for filename in iter_python_files(paths):
        with open(filename, encoding="utf-8") as handle:
            violations.extend(lint_source(handle.read(), filename))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations
