"""Unit tests for fragment storage and index maintenance."""

import pytest

from repro.errors import DuplicateKeyError, NoSuchRowError
from repro.ndb.fragment import Fragment
from repro.ndb.schema import TableSchema

SCHEMA = TableSchema(
    name="t",
    columns=("a", "b", "v"),
    primary_key=("a", "b"),
    indexes={"by_v": ("v",), "by_a": ("a",)},
)


@pytest.fixture
def fragment():
    return Fragment(SCHEMA, partition_id=0)


def row(a, b, v):
    return {"a": a, "b": b, "v": v}


class TestCrud:
    def test_insert_get(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        assert fragment.get((1, "x"))["v"] == 10
        assert len(fragment) == 1

    def test_get_returns_copy(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        copy = fragment.get((1, "x"))
        copy["v"] = 999
        assert fragment.get((1, "x"))["v"] == 10

    def test_duplicate_insert(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        with pytest.raises(DuplicateKeyError):
            fragment.apply_insert(row(1, "x", 20))

    def test_update(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        fragment.apply_update((1, "x"), row(1, "x", 20))
        assert fragment.get((1, "x"))["v"] == 20

    def test_update_missing(self, fragment):
        with pytest.raises(NoSuchRowError):
            fragment.apply_update((1, "x"), row(1, "x", 20))

    def test_delete(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        fragment.apply_delete((1, "x"))
        assert fragment.get((1, "x")) is None
        with pytest.raises(NoSuchRowError):
            fragment.apply_delete((1, "x"))


class TestIndexMaintenance:
    def test_index_lookup(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        fragment.apply_insert(row(2, "y", 10))
        fragment.apply_insert(row(3, "z", 30))
        hits = fragment.index_lookup("by_v", (10,))
        assert {(r["a"], r["b"]) for r in hits} == {(1, "x"), (2, "y")}

    def test_index_follows_update(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        fragment.apply_update((1, "x"), row(1, "x", 20))
        assert fragment.index_lookup("by_v", (10,)) == []
        assert len(fragment.index_lookup("by_v", (20,))) == 1

    def test_index_follows_delete(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        fragment.apply_delete((1, "x"))
        assert fragment.index_lookup("by_v", (10,)) == []

    def test_index_lookup_with_predicate(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        fragment.apply_insert(row(1, "y", 10))
        hits = fragment.index_lookup("by_v", (10,),
                                     predicate=lambda r: r["b"] == "y")
        assert len(hits) == 1


    def test_lookup_order_is_insertion_order(self, fragment):
        """Buckets are insertion-ordered, not sets of string-bearing pks:
        the same inserts give the same order under any PYTHONHASHSEED."""
        names = ["q", "b", "zz", "a", "m", "c", "y", "k"]
        for name in names:
            fragment.apply_insert(row(1, name, 10))
        fragment.apply_update((1, "zz"), row(1, "zz", 10))   # key unchanged
        assert [r["b"] for r in fragment.index_lookup("by_v", (10,))] == names
        fragment.apply_update((1, "b"), row(1, "b", 11))
        fragment.apply_update((1, "b"), row(1, "b", 10))     # back: re-appended
        assert [r["b"] for r in fragment.index_lookup("by_v", (10,))] == \
            [n for n in names if n != "b"] + ["b"]


PARTITIONED = TableSchema(
    name="p", columns=("a", "b", "v"), primary_key=("a", "b"),
    partition_key=("a",), indexes={"by_v": ("v",)})


class TestPartitionIndex:
    @pytest.fixture
    def frag(self):
        return Fragment(PARTITIONED, partition_id=0)

    def test_lookup_returns_the_values_rows_in_scan_order(self, frag):
        for a, b in [(2, "x"), (1, "z"), (2, "a"), (1, "y"), (3, "q")]:
            frag.apply_insert(row(a, b, 0))
        assert [r["b"] for r in frag.partition_lookup((1,))] == ["z", "y"]
        assert [r["b"] for r in frag.partition_lookup((2,))] == ["x", "a"]
        assert frag.partition_lookup((9,)) == []
        for a in (1, 2, 3):
            assert frag.partition_lookup((a,)) == \
                frag.scan(lambda r, a=a: r["a"] == a)

    def test_lookup_returns_copies_and_applies_predicate(self, frag):
        frag.apply_insert(row(1, "x", 1))
        frag.apply_insert(row(1, "y", 2))
        hits = frag.partition_lookup((1,), lambda r: r["v"] == 2)
        assert [r["b"] for r in hits] == ["y"]
        hits[0]["v"] = 99
        assert frag.get((1, "y"))["v"] == 2

    def test_follows_delete_restore_and_load_but_not_update(self, frag):
        frag.apply_insert(row(1, "x", 1))
        frag.apply_insert(row(1, "y", 2))
        frag.apply_update((1, "x"), row(1, "x", 5))          # keeps its place
        assert [r["b"] for r in frag.partition_lookup((1,))] == ["x", "y"]
        frag.apply_restore((1, "x"), row(1, "x", 6))         # moves to the end
        assert [r["b"] for r in frag.partition_lookup((1,))] == ["y", "x"]
        assert [r["b"] for r in frag.scan()] == ["y", "x"]
        frag.apply_delete((1, "y"))
        frag.apply_restore((1, "x"), None)
        assert frag.partition_lookup((1,)) == []
        with frag._lock:
            assert frag._partition_index == {}               # no empty buckets
        other = Fragment(PARTITIONED, partition_id=0)
        other.apply_insert(row(7, "old", 0))
        other.load({(1, "k"): row(1, "k", 3)})
        assert other.partition_lookup((7,)) == []
        assert [r["b"] for r in other.partition_lookup((1,))] == ["k"]

    def test_get_many(self, frag):
        frag.apply_insert(row(1, "x", 1))
        got = frag.get_many([(1, "x"), (1, "nope"), (1, "x")])
        assert [g and g["v"] for g in got] == [1, None, 1]
        got[0]["v"] = 99
        assert frag.get((1, "x"))["v"] == 1


class TestSnapshotRestore:
    def test_snapshot_load_roundtrip(self, fragment):
        for i in range(5):
            fragment.apply_insert(row(i, "n", i * 10))
        snapshot = fragment.snapshot()
        other = Fragment(SCHEMA, partition_id=0)
        other.load(snapshot)
        assert len(other) == 5
        assert other.index_lookup("by_v", (20,))[0]["a"] == 2

    def test_snapshot_is_deep(self, fragment):
        fragment.apply_insert(row(1, "x", 10))
        snapshot = fragment.snapshot()
        fragment.apply_update((1, "x"), row(1, "x", 99))
        assert snapshot[(1, "x")]["v"] == 10

    def test_apply_restore_insert_update_delete(self, fragment):
        fragment.apply_restore((1, "x"), row(1, "x", 10))   # acts as insert
        assert fragment.get((1, "x"))["v"] == 10
        fragment.apply_restore((1, "x"), row(1, "x", 20))   # acts as update
        assert fragment.get((1, "x"))["v"] == 20
        assert len(fragment.index_lookup("by_v", (10,))) == 0
        fragment.apply_restore((1, "x"), None)              # acts as delete
        assert fragment.get((1, "x")) is None
        assert len(fragment) == 0

    def test_scan_with_predicate(self, fragment):
        for i in range(10):
            fragment.apply_insert(row(i, "n", i))
        evens = fragment.scan(lambda r: r["v"] % 2 == 0)
        assert len(evens) == 5
