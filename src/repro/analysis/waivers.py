"""Inline waiver and annotation comments for the HFS linter.

Two comment grammars, both parsed with :mod:`tokenize` so they are found
only in real comments (never inside string literals):

* waivers silence one or more rules on one statement::

      rows = tx.full_scan("leases")  # hfs: allow(HFS101, reason=leader-only housekeeping)
      rows = session.full_scan("t")  # hfs: allow(HFS101, HFS103, reason=offline audit)

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
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

#: ``# hfs: allow(HFS101, reason=...)`` / ``# hfs: allow(HFS101, HFS103, reason=...)``
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
