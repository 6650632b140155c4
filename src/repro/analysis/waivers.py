"""Inline waiver and annotation comments for the HFS linter.

Two comment grammars, both parsed with :mod:`tokenize` so they are found
only in real comments (never inside string literals):

* waivers silence one or more rules on one statement::

      rows = tx.full_scan("leases")  # hfs: allow(HFS101, reason=leader-only housekeeping)
      keys = walk()                  # hfs: allow(HFS102, HFS106, reason=root-down path order)

  A waiver applies to violations reported on its own line or on the line
  directly below it (so it can sit on a comment-only line above a long
  call); the linter additionally maps waivers on decorator lines onto
  the decorated ``def``. The ``reason=`` part is mandatory — a
  reasonless waiver is itself reported as HFS100.

* ``guarded_by`` annotations declare the lock protecting a shared
  mutable attribute, on (or directly above) its ``__init__`` assignment::

      self._held = {}  # guarded_by: _mutex [writes]

  The optional ``[writes]`` suffix means only writes take the lock and
  lock-free reads are part of the design (e.g. a hot-path membership
  check backed by GIL-atomic updates). The pseudo-guards ``GIL`` and
  ``owner-thread`` document lock-free-by-design attributes.

A third grammar feeds the HFS105 static cost analysis
(:mod:`repro.analysis.costs`)::

    resolved = self.resolver.resolve(tx, path)  # rt: cost(2, reason=...)
    self._delete_file_rows(tx, row)             # rt: offpath(reason=...)
    for block in file_blocks:                   # rt: per(block)
    for _attempt in range(3):                   # rt: bound(1, reason=...)

``cost(K)`` pins a call site's warm round-trip cost (for callees whose
cost depends on calling context, e.g. the path resolver); ``offpath``
excludes a statement from the warm bound (cold fallbacks, rare
variants); ``per(sym)`` names a loop's widening symbol; ``bound(K)``
caps a loop's warm iteration count (bounded retry loops that succeed on
the first attempt when uncontended). ``cost``/``offpath``/``bound``
require a ``reason=`` just like waivers. Like waivers, an ``rt:`` note
applies to its own line or the line directly below.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

#: ``# hfs: allow(HFS101, reason=...)`` / ``# hfs: allow(HFS101, HFS106, reason=...)``
_WAIVER_RE = re.compile(
    r"hfs:\s*allow\(\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\s*"
    r"(?:,\s*reason\s*=\s*(?P<reason>[^)]*))?\)")

#: any comment that *looks* like it wants to be a waiver
_WAIVER_HINT_RE = re.compile(r"hfs:\s*allow")

#: ``# guarded_by: _mutex`` / ``# guarded_by: _mutex [writes]``
_GUARD_RE = re.compile(
    r"guarded_by:\s*(?P<name>[A-Za-z_][A-Za-z0-9_-]*)"
    r"\s*(?P<writes>\[writes\])?")

#: annotations must start the comment (``# guarded_by: ...`` or the
#: sphinx-style ``#: guarded_by: ...``) so prose *about* the convention
#: is never parsed as an annotation
_GUARD_HINT_RE = re.compile(r"^#+[:!]?\s*guarded_by\b")


@dataclass(frozen=True)
class Waiver:
    code: str
    reason: str
    line: int


@dataclass(frozen=True)
class Guard:
    name: str
    writes_only: bool
    line: int


def _comments(source: str) -> list[tuple[int, str]]:
    """(line, text) for every comment token; tolerant of tokenize errors."""
    out: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass
    return out


def parse_waivers(source: str, known_codes: frozenset[str] | set[str],
                  ) -> tuple[dict[int, list[Waiver]], list[tuple[int, str]]]:
    """Parse waiver comments.

    Returns ``(waivers_by_line, errors)`` where ``errors`` is a list of
    ``(line, message)`` pairs for malformed waivers (reported as HFS100).
    """
    waivers: dict[int, list[Waiver]] = {}
    errors: list[tuple[int, str]] = []
    for line, text in _comments(source):
        if not _WAIVER_HINT_RE.search(text):
            continue
        match = _WAIVER_RE.search(text)
        if match is None:
            errors.append((line, "malformed waiver; expected "
                                 "'# hfs: allow(HFS1xx[, HFS1yy...], reason=...)'"))
            continue
        codes = [c.strip() for c in match.group("codes").split(",")]
        reason = (match.group("reason") or "").strip()
        bad = [code for code in codes if code not in known_codes]
        if bad:
            for code in bad:
                errors.append((line, f"waiver names unknown rule {code!r}"))
            continue
        if not reason:
            errors.append((line, f"waiver for {', '.join(codes)} is missing "
                                 "its reason=... justification"))
            continue
        for code in codes:
            waivers.setdefault(line, []).append(Waiver(code, reason, line))
    return waivers, errors


def parse_guards(source: str) -> tuple[dict[int, Guard], list[tuple[int, str]]]:
    """Parse ``# guarded_by:`` annotations, keyed by comment line."""
    guards: dict[int, Guard] = {}
    errors: list[tuple[int, str]] = []
    for line, text in _comments(source):
        if not _GUARD_HINT_RE.search(text):
            continue
        match = _GUARD_RE.search(text)
        if match is None:
            errors.append((line, "malformed annotation; expected "
                                 "'# guarded_by: <lock attr> [writes]'"))
            continue
        guards[line] = Guard(match.group("name"),
                             match.group("writes") is not None, line)
    return guards, errors


def is_waived(waivers: dict[int, list[Waiver]], code: str, line: int,
              alias_lines: dict[int, tuple[int, ...]] | None = None) -> bool:
    """True when a waiver for ``code`` sits on ``line`` or directly above.

    ``alias_lines`` maps a violation line to extra candidate lines — the
    linter uses it so a waiver above (or on) a decorator also covers the
    decorated ``def`` line the violation is reported on.
    """
    candidates = [line, line - 1]
    if alias_lines:
        candidates.extend(alias_lines.get(line, ()))
    for candidate in candidates:
        for waiver in waivers.get(candidate, ()):
            if waiver.code == code:
                return True
    return False


# -- rt: cost annotations (HFS105) ----------------------------------------------

#: ``# rt: cost(2, reason=...)`` / ``# rt: offpath(reason=...)`` /
#: ``# rt: per(block)`` / ``# rt: bound(1, reason=...)``
_RT_RE = re.compile(
    r"rt:\s*(?P<kind>cost|offpath|per|bound)\(\s*(?P<body>[^)]*)\)")

_RT_HINT_RE = re.compile(r"\brt:")

_RT_REASON_RE = re.compile(r"reason\s*=\s*(?P<reason>.*)$")


@dataclass(frozen=True)
class RtNote:
    kind: str              # 'cost' | 'offpath' | 'per' | 'bound'
    value: int | None      # K for cost/bound
    symbol: str | None     # loop symbol for per
    reason: str
    line: int


def parse_rt_notes(source: str,
                   ) -> tuple[dict[int, RtNote], list[tuple[int, str]]]:
    """Parse ``# rt:`` cost annotations, keyed by comment line.

    Returns ``(notes_by_line, errors)``; malformed notes are reported as
    HFS100 by the linter, like malformed waivers.
    """
    notes: dict[int, RtNote] = {}
    errors: list[tuple[int, str]] = []
    for line, text in _comments(source):
        if not _RT_HINT_RE.search(text):
            continue
        match = _RT_RE.search(text)
        if match is None:
            errors.append((line, "malformed rt: note; expected "
                                 "'# rt: cost(K, reason=...)', "
                                 "'# rt: offpath(reason=...)', "
                                 "'# rt: per(symbol)' or "
                                 "'# rt: bound(K, reason=...)'"))
            continue
        kind = match.group("kind")
        body = match.group("body").strip()
        value: int | None = None
        symbol: str | None = None
        reason = ""
        if kind == "per":
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", body):
                errors.append((line, f"rt: per(...) needs a bare symbol "
                                     f"name, got {body!r}"))
                continue
            symbol = body
        else:
            head, _, tail = body.partition(",")
            if kind in ("cost", "bound"):
                head = head.strip()
                if not re.fullmatch(r"\d+", head):
                    errors.append((line, f"rt: {kind}(...) needs an integer "
                                         f"round-trip count, got {head!r}"))
                    continue
                value = int(head)
                reason_src = tail.strip()
            else:  # offpath
                reason_src = body
            reason_match = _RT_REASON_RE.search(reason_src)
            reason = (reason_match.group("reason").strip()
                      if reason_match else "")
            if not reason:
                errors.append((line, f"rt: {kind}(...) is missing its "
                                     "reason=... justification"))
                continue
        if line in notes:
            errors.append((line, "multiple rt: notes on one line"))
            continue
        notes[line] = RtNote(kind, value, symbol, reason, line)
    return notes, errors


def rt_note_for(notes: dict[int, RtNote], line: int,
                kind: str | tuple[str, ...]) -> RtNote | None:
    """The rt: note of ``kind`` applying to ``line`` (own line or above)."""
    kinds = (kind,) if isinstance(kind, str) else kind
    for candidate in (line, line - 1):
        note = notes.get(candidate)
        if note is not None and note.kind in kinds:
            return note
    return None
