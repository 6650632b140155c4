"""Rule catalogue for the HopsFS transaction-discipline linter.

Each rule enforces an invariant the paper states in prose and the rest of
the tree follows only by convention:

* **HFS101** (§3.3) — hot-path modules may use only the cheap access
  types: primary-key ``read``, ``read_batch`` and partition-pruned index
  scans (``ppis``, ``ppis_batch``). ``full_scan`` and unhinted
  ``index_scan`` fan out to every shard and must not appear on the
  operation hot path.
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

No rule checks the lock order: one total order over every row lock
(§3.4), with the strongest lock taken up front, is checked where each
lock is taken. The lock-order witness (:mod:`repro.analysis.lockwitness`)
ranks every request by :func:`repro.hopsfs.schema.lock_rank` and sees
every upgrade; the guard sanitizer sees every access without its lock.
Both see the locks the resolver takes and accesses from other modules,
which no rule sees. What each rule catches that no runtime checker does
is the table "Which checker catches what" in
``docs/static_analysis.md``.

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
    "HFS103": "DAL access outside a transaction callback (raw session / bare begin)",
    "HFS104": "shared mutable attribute without guarded_by, guarded_by naming no lock, "
              "or a [writes] attribute mutated in place outside its lock",
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
