"""A locking scan's candidate pass: the shard visit hands over the keys of
the rows that match, and the rows are copied once, under their locks.

A row that changes or goes between the visit and the lock grant must
come back as of the lock — re-read, and re-filtered by the scan's
predicate — never as the visit saw it.
"""

import pytest

from repro.ndb import LockMode, NDBCluster, NDBConfig, TableSchema
from repro.ndb.fragment import Fragment
from repro.ndb.transaction import Transaction

ITEMS = TableSchema(
    name="items",
    columns=("pid", "name", "value", "note"),
    primary_key=("pid", "name"),
    partition_key=("pid",),
    indexes={"by_value": ("value",)},
)


@pytest.fixture
def cluster():
    c = NDBCluster(NDBConfig(num_datanodes=2, replication=2,
                             lock_timeout=0.5))
    c.create_table(ITEMS)
    with c.begin() as tx:
        for name in ("a", "b", "c"):
            tx.insert("items", {"pid": 1, "name": name, "value": 0,
                                "note": "old"})
        tx.insert("items", {"pid": 2, "name": "z", "value": 0,
                            "note": "old"})
    return c


#: each locking scan kind over the pid=1 rows, given an optional predicate
SCANS = {
    "ppis": lambda tx, pred: tx.ppis("items", {"pid": 1}, predicate=pred,
                                     lock=LockMode.EXCLUSIVE),
    "ppis_batch": lambda tx, pred: [
        row for row in tx.ppis_batch([("items", {"pid": 1})],
                                     lock=LockMode.EXCLUSIVE)[0]
        if pred is None or pred(row)],
    "index_scan": lambda tx, pred: [
        row for row in tx.index_scan("items", "by_value", (0,),
                                     predicate=pred, lock=LockMode.EXCLUSIVE)
        if row["pid"] == 1],
}


def _meddle_before_the_lock(cluster, monkeypatch, scanner):
    """Before ``scanner`` takes its scan's locks, another transaction
    updates ``a``'s note and deletes ``b``, and commits."""
    real = Transaction._lock_many
    done = []

    def lock_many(tx, mode, keys, modes=None):
        if tx is scanner and not done:
            done.append(list(keys))
            with cluster.begin() as other:
                other.update("items", (1, "a"), {"note": "new"})
                other.delete("items", (1, "b"))
        return real(tx, mode, keys, modes)

    monkeypatch.setattr(Transaction, "_lock_many", lock_many)
    return done


@pytest.mark.parametrize("kind", sorted(SCANS))
def test_a_candidate_changed_before_its_lock_is_read_as_of_the_lock(
        cluster, monkeypatch, kind):
    scanner = cluster.begin()
    done = _meddle_before_the_lock(cluster, monkeypatch, scanner)
    rows = SCANS[kind](scanner, None)
    # every candidate the visit found was locked, b included
    assert [key for key in done[0] if key[1][0] == 1] == [
        ("items", (1, "a")), ("items", (1, "b")), ("items", (1, "c"))]
    assert sorted((r["name"], r["note"]) for r in rows) == [("a", "new"),
                                                            ("c", "old")]
    scanner.commit()


@pytest.mark.parametrize("kind", ["ppis", "index_scan"])
def test_the_predicate_is_run_again_on_the_row_under_the_lock(
        cluster, monkeypatch, kind):
    scanner = cluster.begin()
    _meddle_before_the_lock(cluster, monkeypatch, scanner)
    rows = SCANS[kind](scanner, lambda row: row["note"] == "old")
    # a matched at the visit, but not as of its lock
    assert [r["name"] for r in rows] == ["c"]
    scanner.commit()


@pytest.mark.parametrize("kind", sorted(SCANS))
def test_the_candidate_pass_copies_no_row(cluster, monkeypatch, kind):
    copied = []
    real_copies = Fragment._copies
    real_get_many = Fragment.get_many

    def copies(rows, predicate):
        found = real_copies(rows, predicate)
        copied.extend(found)
        return found

    def get_many(fragment, pks):
        found = real_get_many(fragment, pks)
        copied.extend(row for row in found if row is not None)
        return found

    monkeypatch.setattr(Fragment, "_copies", staticmethod(copies))
    monkeypatch.setattr(Fragment, "get_many", get_many)
    with cluster.begin() as tx:
        rows = SCANS[kind](tx, None)
    assert sorted(r["name"] for r in rows) == ["a", "b", "c"]
    # each matching row copied exactly once: by the re-read under lock
    expected = 4 if kind == "index_scan" else 3  # + pid 2's value-0 row
    assert len(copied) == expected
