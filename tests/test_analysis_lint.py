"""Per-rule fixtures for the transaction-discipline linter (HFS100-104).

Each rule gets a positive fixture (the violation fires), a negative one
(conforming code stays clean), and a waiver fixture (the inline
``# hfs: allow(...)`` comment suppresses it). Paths passed to
``lint_source`` decide which rules apply, so hot-path rules are exercised
with hot-path-like module names.
"""

import textwrap

from repro.analysis.linter import lint_source

HOT = "src/repro/hopsfs/ops_inode.py"
COLD = "src/repro/hopsfs/fsck.py"


def lint(source: str, path: str = HOT):
    return lint_source(textwrap.dedent(source), path)


def codes(source: str, path: str = HOT):
    return [v.code for v in lint(source, path)]


# -- HFS101: expensive access types on the hot path ---------------------------


class TestHFS101:
    def test_full_scan_on_hot_path_flagged(self):
        src = """
        def fn(tx):
            return tx.full_scan("leases")
        """
        assert codes(src) == ["HFS101"]

    def test_index_scan_on_hot_path_flagged(self):
        src = """
        def fn(tx):
            return tx.index_scan("inodes", "by_id", (7,))
        """
        assert codes(src) == ["HFS101"]

    def test_cheap_access_types_clean(self):
        src = """
        def fn(tx):
            a = tx.read("inodes", (1, 2, "x"))
            b = tx.read_batch("quotas", [(1,), (2,)])
            c = tx.ppis("blocks", {"inode_id": 3})
            return a, b, c
        """
        assert codes(src) == []

    def test_full_scan_off_hot_path_allowed(self):
        src = """
        def fn(tx):
            return tx.full_scan("inodes")
        """
        assert codes(src, path=COLD) == []

    def test_waiver_on_preceding_line_suppresses(self):
        src = """
        def fn(tx):
            # hfs: allow(HFS101, reason=leader-only housekeeping sweep)
            return tx.full_scan("leases")
        """
        assert codes(src) == []

    def test_waiver_on_same_line_suppresses(self):
        src = """
        def fn(tx):
            return tx.full_scan("leases")  # hfs: allow(HFS101, reason=sweep)
        """
        assert codes(src) == []

    def test_waiver_does_not_leak_to_later_lines(self):
        src = """
        def fn(tx):
            # hfs: allow(HFS101, reason=only the first scan is waived)
            a = tx.full_scan("leases")
            b = tx.full_scan("quotas")
            return a, b
        """
        assert codes(src) == ["HFS101"]


# -- HFS102: lock order ---------------------------------------------------------


class TestHFS102:
    def test_decreasing_literal_keys_flagged(self):
        src = """
        from repro.ndb.locks import LockMode

        def fn(tx):
            tx.read("inodes", (5,), lock=LockMode.EXCLUSIVE)
            tx.read("inodes", (3,), lock=LockMode.EXCLUSIVE)
        """
        assert "HFS102" in codes(src)
        # the seeded defect (docs/static_analysis.md, "Which checker
        # catches what")
        seeded = """
        def fn(tx):
            row = tx.read("sequences", (sequence,), lock=LockMode.EXCLUSIVE)
            tx.read("sequences", ("inodes",), lock=LockMode.EXCLUSIVE)
            tx.read("sequences", ("blocks",), lock=LockMode.EXCLUSIVE)
        """
        assert codes(seeded, path=COLD) == ["HFS102"]

    def test_increasing_literal_keys_clean(self):
        src = """
        from repro.ndb.locks import LockMode

        def fn(tx):
            tx.read("inodes", (3,), lock=LockMode.EXCLUSIVE)
            tx.read("inodes", (5,), lock=LockMode.EXCLUSIVE)
        """
        assert codes(src) == []

    def test_per_item_lock_in_unsorted_loop_flagged(self):
        src = """
        from repro.ndb.locks import LockMode

        def fn(tx, rows):
            for row in rows:
                tx.read("inodes", row, lock=LockMode.EXCLUSIVE)
        """
        assert "HFS102" in codes(src)
        # the seeded defect only this check caught: the quota applier's
        # deltas are grouped in update-id order, not quota-row order
        seeded = """
        def fn(tx):
            for inode_id, (ns_delta, ds_delta) in by_inode.items():
                row = tx.read("quotas", (inode_id,), lock=LockMode.EXCLUSIVE)
                tx.update("quotas", (inode_id,), {"ns_used": ns_delta})
        """
        assert codes(seeded, path=COLD) == ["HFS102", "HFS102"]

    def test_per_item_lock_in_sorted_loop_clean(self):
        src = """
        from repro.ndb.locks import LockMode

        def fn(tx, rows):
            for row in sorted(rows):
                tx.read("inodes", row, lock=LockMode.EXCLUSIVE)
        """
        assert codes(src) == []

    def test_name_assigned_from_sorted_is_clean(self):
        src = """
        from repro.ndb.locks import LockMode

        def fn(tx, rows):
            ordered = sorted(rows, key=lambda r: r["id"])
            for row in ordered:
                tx.read("inodes", row, lock=LockMode.EXCLUSIVE)
        """
        assert codes(src) == []

    def test_range_loop_is_clean(self):
        src = """
        from repro.ndb.locks import LockMode

        def fn(tx):
            for i in range(4):
                tx.read("inodes", (i,), lock=LockMode.EXCLUSIVE)
        """
        assert codes(src) == []

    def test_waiver_suppresses_lock_order(self):
        src = """
        from repro.ndb.locks import LockMode

        def fn(tx, rows):
            for row in rows:
                # hfs: allow(HFS102, reason=single-row batches only)
                tx.read("inodes", row, lock=LockMode.EXCLUSIVE)
        """
        assert codes(src) == []


# -- HFS103: DAL access outside transaction-callback scope --------------------


class TestHFS103:
    def test_raw_session_access_flagged(self):
        src = """
        def fn(session):
            return session.read("inodes", (1,))
        """
        assert codes(src, path=COLD) == ["HFS103"]

    def test_bare_begin_handle_flagged(self):
        src = """
        def fn(cluster):
            tx = cluster.begin()
            return tx.read("inodes", (1,))
        """
        assert codes(src, path=COLD) == ["HFS103"]

    def test_with_begin_handle_flagged(self):
        src = """
        def fn(cluster):
            with cluster.begin() as tx:
                return tx.full_scan("inodes")
        """
        assert codes(src, path=COLD) == ["HFS103"]

    def test_callback_transaction_clean(self):
        src = """
        def fn(session):
            def body(tx):
                return tx.read("inodes", (1,))
            return session.run(body)
        """
        assert codes(src, path=COLD) == []

    def test_waiver_suppresses(self):
        src = """
        def fn(session):
            # hfs: allow(HFS103, reason=read-only introspection helper)
            return session.read("inodes", (1,))
        """
        assert codes(src, path=COLD) == []


# -- HFS104: guarded_by annotations -------------------------------------------


class TestHFS104:
    def test_unannotated_shared_attr_flagged(self):
        src = """
        import threading

        class Cache:
            def __init__(self):
                self._mutex = threading.Lock()
                self._entries = {}

            def put(self, k, v):
                self._entries[k] = v
        """
        violations = lint(src, path=COLD)
        assert [v.code for v in violations] == ["HFS104"]
        assert "_entries" in violations[0].message
        # the seeded defect the guard sanitizer cannot see: it instruments
        # annotated attributes only
        seeded = """
        import threading

        class LockManager:
            def __init__(self):
                self._mutex = threading.Lock()
                self._aborted: set[Hashable] = set()

            def mark_aborted(self, owner):
                with self._mutex:
                    self._aborted.add(owner)
        """
        violations = lint(seeded, path="src/repro/ndb/locks.py")
        assert [v.code for v in violations] == ["HFS104"]
        assert "LockManager._aborted" in violations[0].message

    def test_annotated_and_locked_access_clean(self):
        src = """
        import threading

        class Cache:
            def __init__(self):
                self._mutex = threading.Lock()
                self._entries = {}  # guarded_by: _mutex

            def put(self, k, v):
                with self._mutex:
                    self._entries[k] = v
        """
        assert codes(src, path=COLD) == []

    def test_mutator_method_outside_lock_flagged(self):
        # in-place writes to a [writes] attribute: the guard sanitizer sees
        # a write only through __setattr__ and checks no [writes] read
        src = """
        import threading

        class Queue:
            def __init__(self):
                self._mutex = threading.Lock()
                self._items = []  # guarded_by: _mutex [writes]

            def push(self, item):
                self._items.append(item)

            def push_locked(self, item):
                with self._mutex:
                    self._items.append(item)

            def reset(self):
                self._items = []  # a whole-value write: the sanitizer's
        """
        assert codes(src, path=COLD) == ["HFS104"]
        # seeded row (r): a failover updates the primary table in place
        # after it has left the structure gate
        seeded = """
        from repro.util.rwlock import ReadWriteLock

        class NDBCluster:
            def __init__(self):
                self._structure_gate = ReadWriteLock(name="structure_gate")
                # guarded_by: _structure_gate [writes]
                self._primaries = [0, 1]

            def kill_node(self, node_id, survivor):
                with self._structure_gate.write_locked():
                    pass
                for pid, primary in enumerate(self._primaries):
                    if primary == node_id:
                        self._primaries[pid] = survivor
        """
        violations = lint(seeded, path="src/repro/ndb/cluster.py")
        assert [(v.code, v.line) for v in violations] == [("HFS104", 15)]
        assert "in-place write to NDBCluster._primaries" in violations[0].message

    def test_pseudo_guard_gil_accepted(self):
        src = """
        import threading

        class Flag:
            def __init__(self):
                self._mutex = threading.Lock()
                self.alive = True  # guarded_by: GIL -- whole-value replacement
                self._seen = {}  # guarded_by: _mutex

            def kill(self):
                self.alive = False

            def note(self, k):
                with self._mutex:
                    self._seen[k] = True
        """
        assert codes(src, path=COLD) == []

    def test_writes_suffix_allows_lock_free_reads(self):
        src = """
        import threading

        class Counter:
            def __init__(self):
                self._mutex = threading.Lock()
                self.state = "idle"  # guarded_by: _mutex [writes]

            def read_state(self):
                return self.state

            def advance(self):
                with self._mutex:
                    self.state = "busy"
        """
        assert codes(src, path=COLD) == []

    def test_outside_guarded_scope_not_checked(self):
        src = """
        import threading

        class Cache:
            def __init__(self):
                self._mutex = threading.Lock()
                self._entries = {}

            def put(self, k, v):
                self._entries[k] = v
        """
        assert codes(src, path="src/repro/perfmodel/model.py") == []


# -- HFS100: malformed waivers -------------------------------------------------


class TestHFS100:
    def test_waiver_without_reason_flagged(self):
        src = """
        def fn(tx):
            # hfs: allow(HFS101)
            return tx.full_scan("leases")
        """
        result = codes(src)
        assert "HFS100" in result
        assert "HFS101" in result  # the waiver is void, the scan still fires

    def test_unknown_rule_flagged(self):
        src = """
        def fn(tx):
            # hfs: allow(HFS999, reason=no such rule)
            return tx.read("inodes", (1,))
        """
        assert codes(src) == ["HFS100"]

    def test_syntax_error_reported_as_hfs100(self):
        assert codes("def fn(:\n") == ["HFS100"]
