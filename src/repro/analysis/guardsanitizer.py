"""Runtime sanitizer for ``# guarded_by:`` annotations.

HFS104 statically checks that shared mutable state carries a
``# guarded_by:`` annotation; this module checks at run time that the
annotation is kept. Opt-in (``REPRO_GUARD_SANITIZER=1``), it instruments
every annotated attribute of the concurrent core (the same ``ndb/`` +
``hopsfs/`` + ``rpc/`` scope as HFS104) and records a violation whenever
one is read or written without its guard held, in its own class or from
any other module or test. In the table of ``docs/static_analysis.md`` it
caught each seeded unguarded access it can see, and alone the one from
outside the class (``NDBCluster`` reading ``LockManager._aborted``
without ``_mutex``), which no per-class rule sees. Two things it cannot
see stay HFS104's: an attribute nobody annotated, and an in-place
mutation (``self.x[k] = v``, ``self.x.append(v)``) of a
``[writes]``-annotated attribute — a write reaches it only through
``__setattr__``, and a ``[writes]`` attribute's reads are unchecked.

How a guard is judged "held":

* plain ``threading.Lock`` has no owner, so the instrumented
  ``__setattr__`` wraps any plain lock assigned to a guard attribute in
  :class:`TrackedLock`, which counts per-thread holds;
* ``RLock`` and ``Condition`` expose ``_is_owned()`` (strong, per-thread);
* :class:`repro.util.rwlock.ReadWriteLock` is judged by its reader /
  writer state (weak: some thread holds it, not necessarily ours —
  the RW lock keeps no owner records);
* the pseudo-guards ``GIL`` and ``owner-thread`` document conventions a
  runtime check cannot falsify, so they are skipped entirely.

Attribute writes during ``__init__`` are exempt (the object is not yet
shared), tracked re-entrantly so a subclass chaining into an
instrumented base class keeps the exemption.

Violations accumulate in :data:`VIOLATIONS`; the pytest plugin in
``conftest.py`` fails the test that produced them and prints a summary.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from dataclasses import dataclass
from importlib import import_module
from typing import Optional

from repro.analysis.rules import GUARDED_SCOPE_FRAGMENTS, PSEUDO_GUARDS
from repro.analysis.waivers import parse_guards

_PLAIN_LOCK_TYPE = type(threading.Lock())

#: every violation observed since :func:`install` (append-only)
VIOLATIONS: list["GuardViolation"] = []

_seen_sites: set[tuple] = set()
_installed = False

_construction = threading.local()


def _construction_depths() -> dict[int, int]:
    depths = getattr(_construction, "depths", None)
    if depths is None:
        depths = _construction.depths = {}
    return depths


@dataclass(frozen=True)
class GuardSpec:
    """One annotated attribute of one class."""

    cls: str            # qualified class name, for messages
    attr: str
    lock_attr: str
    writes_only: bool
    path: str
    line: int           # annotation line in ``path``


@dataclass(frozen=True)
class GuardViolation:
    spec: GuardSpec
    op: str             # 'read' | 'write'
    site: str           # file:line of the offending access

    def render(self) -> str:
        return (f"{self.op} of {self.spec.cls}.{self.spec.attr} without "
                f"{self.spec.lock_attr} held, at {self.site} "
                f"(annotated {self.spec.path}:{self.spec.line})")


class TrackedLock:
    """A plain ``threading.Lock`` with per-thread hold counting.

    Plain locks keep no owner, so ``locked()`` cannot distinguish "held
    by me" from "held by someone else". The sanitizer swaps them for
    this wrapper at assignment time; everything the stdlib lock offers
    is forwarded, plus :meth:`held` for the guard check. ``Condition``
    built over a plain lock uses only ``acquire``/``release`` (the
    ``_release_save`` fast paths are RLock-only), so counting survives
    that composition too.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._holds = threading.local()

    def _count(self) -> int:
        return getattr(self._holds, "n", 0)

    def held(self) -> bool:
        return self._count() > 0

    def acquire(self, *args, **kwargs) -> bool:
        got = self._inner.acquire(*args, **kwargs)
        if got:
            self._holds.n = self._count() + 1
        return got

    def release(self) -> None:
        self._inner.release()
        self._holds.n = max(0, self._count() - 1)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        return f"TrackedLock({self._inner!r})"


def _guard_held(lock: object, writes_only: bool) -> Optional[bool]:
    """Whether ``lock`` is held (for the kind of access being checked).

    Returns ``None`` when the lock object offers no usable signal.
    """
    if isinstance(lock, TrackedLock):
        return lock.held()
    is_owned = getattr(lock, "_is_owned", None)
    if callable(is_owned):        # RLock, Condition: strong per-thread
        return bool(is_owned())
    readers = getattr(lock, "_readers", None)
    writer = getattr(lock, "_writer", None)
    if readers is not None and writer is not None:   # ReadWriteLock
        if writes_only:
            return bool(writer)
        return bool(writer) or readers > 0
    locked = getattr(lock, "locked", None)
    if callable(locked):          # unwrapped plain lock: weak
        return bool(locked())
    return None


# -- discovery -------------------------------------------------------------------


def _iter_scope_files(root: str) -> list[str]:
    files = []
    for dirpath, _dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root).replace(os.sep, "/") + "/"
        if not any(fragment in rel for fragment in GUARDED_SCOPE_FRAGMENTS):
            continue
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                files.append(os.path.join(dirpath, filename))
    return files


def _module_name(path: str, root: str) -> str:
    rel = os.path.relpath(path, os.path.dirname(root))
    return rel[:-3].replace(os.sep, ".")


def discover(root: str = "src/repro") -> dict[tuple[str, str],
                                              dict[str, GuardSpec]]:
    """Map ``(module, class)`` to its annotated attributes.

    Scans the HFS104 scope for ``self.<attr> = ...`` assignments carrying
    a ``# guarded_by:`` annotation on the same line or the line above
    (same-line annotations claim their comment first, so a standalone
    comment is never double-counted by the next assignment).
    """
    out: dict[tuple[str, str], dict[str, GuardSpec]] = {}
    for path in _iter_scope_files(root):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        guards, _errors = parse_guards(source)
        if not guards:
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        module = _module_name(path, root)
        for cls_node in tree.body:
            if not isinstance(cls_node, ast.ClassDef):
                continue
            assigns: list[tuple[str, int]] = []
            for node in ast.walk(cls_node):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        assigns.append((target.attr, node.lineno))
            specs: dict[str, GuardSpec] = {}
            claimed: set[int] = set()
            for offset in (0, 1):        # same line first, then line above
                for attr, line in assigns:
                    guard = guards.get(line - offset)
                    if guard is None or (line - offset) in claimed:
                        continue
                    if guard.name in PSEUDO_GUARDS or attr in specs:
                        continue
                    claimed.add(line - offset)
                    specs[attr] = GuardSpec(
                        cls=f"{module}.{cls_node.name}", attr=attr,
                        lock_attr=guard.name, writes_only=guard.writes_only,
                        path=path, line=line - offset)
            if specs:
                out[(module, cls_node.name)] = specs
    return out


# -- instrumentation -------------------------------------------------------------


def _record(spec: GuardSpec, op: str) -> None:
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    site = "<unknown>"
    if frame is not None:
        site = f"{frame.f_code.co_filename}:{frame.f_lineno}"
    key = (spec.cls, spec.attr, op, site)
    if key in _seen_sites:
        return
    _seen_sites.add(key)
    VIOLATIONS.append(GuardViolation(spec, op, site))


def _check(instance: object, spec: GuardSpec, op: str) -> None:
    try:
        lock = object.__getattribute__(instance, spec.lock_attr)
    except AttributeError:
        _record(spec, op)     # guard not even constructed yet
        return
    held = _guard_held(lock, spec.writes_only)
    if held is False:
        _record(spec, op)


def _instrument(cls: type, specs: dict[str, GuardSpec]) -> None:
    if getattr(cls, "_guard_sanitizer_instrumented", False):
        return
    read_checked = frozenset(attr for attr, spec in specs.items()
                             if not spec.writes_only)
    lock_attrs = frozenset(spec.lock_attr for spec in specs.values())
    orig_init = cls.__init__
    orig_setattr = cls.__setattr__
    orig_getattribute = cls.__getattribute__

    def __init__(self, *args, **kwargs):
        depths = _construction_depths()
        key = id(self)
        depths[key] = depths.get(key, 0) + 1
        try:
            orig_init(self, *args, **kwargs)
        finally:
            remaining = depths[key] - 1
            if remaining:
                depths[key] = remaining
            else:
                del depths[key]

    def __setattr__(self, name, value):
        spec = specs.get(name)
        if spec is not None and id(self) not in _construction_depths():
            _check(self, spec, "write")
        if name in lock_attrs and type(value) is _PLAIN_LOCK_TYPE:
            value = TrackedLock(value)
        orig_setattr(self, name, value)

    def __getattribute__(self, name):
        if name in read_checked \
                and id(self) not in _construction_depths():
            _check(self, specs[name], "read")
        return orig_getattribute(self, name)

    cls.__init__ = __init__
    cls.__setattr__ = __setattr__
    cls.__getattribute__ = __getattribute__
    cls._guard_sanitizer_instrumented = True


def install(root: str = "src/repro") -> int:
    """Instrument every discovered class; returns how many were patched.

    Idempotent; meant to run once at pytest startup, before any
    instrumented class is instantiated (locks assigned earlier would
    miss their :class:`TrackedLock` wrapper and fall back to the weak
    ``locked()`` signal).
    """
    global _installed
    if _installed:
        return 0
    patched = 0
    for (module_name, cls_name), specs in discover(root).items():
        try:
            module = import_module(module_name)
        except ImportError:
            continue
        cls = getattr(module, cls_name, None)
        if isinstance(cls, type):
            _instrument(cls, specs)
            patched += 1
    _installed = True
    return patched
