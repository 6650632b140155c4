"""Rule catalogue for the HopsFS transaction-discipline linter.

Each rule enforces an invariant the paper states in prose and the rest of
the tree follows only by convention:

* **HFS101** (§3.3) — hot-path modules may use only the cheap access
  types: primary-key ``read``, ``read_batch`` and partition-pruned index
  scans (``ppis``, ``ppis_batch``). ``full_scan`` and unhinted
  ``index_scan`` fan out to every shard and must not appear on the
  operation hot path.
* **HFS102** (§3.4) — row locks are taken in one total order: no
  acquisition of literal keys in decreasing order, and no per-item lock
  acquisition inside a loop over an unsorted iterable.
* **HFS103** (§2.2.1) — DAL access calls happen only inside a
  transaction callback run by ``Session.run`` (which retries on lock
  conflicts and merges statistics); never on a raw session, and never on
  a transaction obtained from a bare ``begin()``.
* **HFS104** — shared mutable attributes of classes in ``ndb/``,
  ``hopsfs/`` and ``rpc/`` that own a lock must carry a
  ``# guarded_by: <lock>`` annotation naming one of the class's locks
  (or a pseudo-guard), and an attribute annotated ``[writes]`` is not
  mutated in place (an item store or a mutator call) outside
  ``with self.<lock>``. Every other access to an annotated attribute is
  checked at run time, from every module, by the guard sanitizer
  (:mod:`repro.analysis.guardsanitizer`), which sees no in-place write
  to a ``[writes]`` attribute.
* **HFS106** (§3.4, across calls) — every batched acquisition site
  (``acquire_many`` / ``_lock_many`` / ``delete_batch`` / locked
  ``read_batch``) must take a provably sorted key iterable, and no
  helper that acquires locks may be called per item from a loop over an
  unsorted iterable. A locking scan (``ppis``, ``ppis_batch``,
  ``index_scan`` with ``lock=``) puts no such obligation on its caller:
  the primitive finds the keys itself and sorts them before it locks.
  See :mod:`repro.analysis.interproc`.

No rule checks lock *upgrades* or lock-held accesses: a
SHARED→EXCLUSIVE upgrade inside one transaction, like an access without
the lock held, does not depend on what another test does, so the
lock-order witness (:mod:`repro.analysis.lockwitness`) and the guard
sanitizer see it on every path a test runs, including locks taken
through the resolver and accesses from other modules, which no rule
sees. What each rule catches that no runtime checker does is the table
"Which checker catches what" in ``docs/static_analysis.md``.

``HFS100`` is reserved for problems with the waiver and annotation
comments themselves (malformed syntax, missing reason, unknown rule
code).

Warm round-trip costs are not a lint rule: every entry of the budget
table (:mod:`repro.analysis.budgets`) is pinned by measurement, in
``tests/test_round_trip_budgets.py``.
"""

from __future__ import annotations

#: rule code -> one-line description (``python -m repro.analysis rules``)
RULES: dict[str, str] = {
    "HFS100": "malformed waiver or annotation comment",
    "HFS101": "expensive access type (full_scan / unhinted index_scan) on a hot path",
    "HFS102": "literal keys locked in decreasing order, or per-item locks in an unsorted loop",
    "HFS103": "DAL access outside a transaction callback (raw session / bare begin)",
    "HFS104": "shared mutable attribute without guarded_by, guarded_by naming no lock, "
              "or a [writes] attribute mutated in place outside its lock",
    "HFS106": "unsorted batch keys, or a locking helper called from an unsorted loop",
}

#: path suffixes of the hot-path modules HFS101 applies to (paper §3.3:
#: every metadata operation must resolve to cheap access types)
HOT_PATH_SUFFIXES: tuple[str, ...] = (
    "hopsfs/ops_inode.py",
    "hopsfs/tx.py",
    "hopsfs/blockreport.py",
    "hopsfs/replication.py",
)

#: DAL access methods only allowed on hot paths
HOT_PATH_ALLOWED: frozenset[str] = frozenset({"read", "read_batch", "ppis",
                                              "ppis_batch"})

#: DAL access methods banned on hot paths (all-shard fan-out)
HOT_PATH_BANNED: frozenset[str] = frozenset({"full_scan", "index_scan"})

#: the DAL access vocabulary HFS103 polices (see repro.dal.driver)
DAL_ACCESS_METHODS: frozenset[str] = frozenset({
    "read", "read_batch", "ppis", "ppis_batch", "index_scan", "full_scan",
    "write",
})

#: receiver names that identify a raw session object
SESSION_NAME_HINTS: tuple[str, ...] = ("session", "sess")

#: path fragments delimiting HFS104's scope (the concurrent core: the
#: engine, the namenode, and the ndb-server's loop and connection state)
GUARDED_SCOPE_FRAGMENTS: tuple[str, ...] = ("ndb/", "hopsfs/", "rpc/")

#: constructor names that make an attribute a lock (``self.x = Lock()``)
LOCK_FACTORY_NAMES: frozenset[str] = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "ReadWriteLock",
})

#: pseudo-guards accepted by ``# guarded_by:`` besides real lock attrs.
#: ``GIL`` documents single-bytecode atomicity (whole-value replacement);
#: ``owner-thread`` documents single-owner access by API contract.
PSEUDO_GUARDS: frozenset[str] = frozenset({"GIL", "owner-thread"})

#: method names that mutate a container in place (``self.x.append(...)``)
MUTATOR_METHODS: frozenset[str] = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "pop", "popleft", "popitem", "remove", "setdefault", "update",
    "sort", "reverse",
})
