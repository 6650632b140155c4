"""Static analysis + runtime verification of the HopsFS invariants.

One checker per catch:

* :mod:`repro.analysis.linter` — an AST linter (``python -m
  repro.analysis lint``) for what must hold on every path, run or not:
  cheap access types on hot paths (HFS101), DAL calls only inside
  transaction callbacks (HFS103), ``guarded_by`` annotations on shared
  mutable state and no in-place write to a ``[writes]`` attribute
  outside its lock (HFS104);
* :mod:`repro.analysis.lockwitness` — an opt-in runtime recorder
  (``REPRO_LOCK_WITNESS=1``) that checks the §3.4 lock order where each
  lock is taken: every row lock a transaction requests must rank above
  the ones it requested before (:func:`repro.hopsfs.schema.lock_rank`);
  across the test suite it also builds the lock-acquisition-order graph
  and reports its cycles and every lock upgrade;
* :mod:`repro.analysis.guardsanitizer` — an opt-in runtime check
  (``REPRO_GUARD_SANITIZER=1``) that fails a test touching an annotated
  attribute without its lock, from any module (all but an in-place
  write to a ``[writes]`` attribute, which it cannot see).

Which checker catches which seeded defect is the table in
``docs/static_analysis.md``.
"""

from repro.analysis.linter import Violation, lint_paths, lint_source
from repro.analysis.lockwitness import (
    LockWitness,
    WitnessReport,
    current_witness,
    install_witness,
    uninstall_witness,
)
from repro.analysis.rules import RULES

__all__ = [
    "RULES",
    "LockWitness",
    "Violation",
    "WitnessReport",
    "current_witness",
    "install_witness",
    "lint_paths",
    "lint_source",
    "uninstall_witness",
]
