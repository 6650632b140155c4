"""Unit tests for fragment storage and index maintenance."""

import random

import pytest

from repro.errors import DuplicateKeyError, NoSuchRowError
from repro.ndb.fragment import Fragment, WriteRecord
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


#: a write's before-image tells an update or a delete (an image) from an
#: insert (None); the fragment reads nothing else of it
OLD = {}


def apply_insert(frag, new):
    frag.apply_batch([WriteRecord(frag.schema.name, frag.partition_id,
                                  frag.schema.pk_of(new), None, new)])


def apply_update(frag, pk, new):
    frag.apply_batch([WriteRecord(frag.schema.name, frag.partition_id, pk,
                                  OLD, new)])


def apply_delete(frag, pk):
    frag.apply_batch([WriteRecord(frag.schema.name, frag.partition_id, pk,
                                  OLD, None)])


class TestCrud:
    def test_insert_get(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        assert fragment.get((1, "x"))["v"] == 10
        assert len(fragment) == 1

    def test_get_returns_copy(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        copy = fragment.get((1, "x"))
        copy["v"] = 999
        assert fragment.get((1, "x"))["v"] == 10

    def test_duplicate_insert(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        with pytest.raises(DuplicateKeyError):
            apply_insert(fragment, row(1, "x", 20))

    def test_update(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        apply_update(fragment, (1, "x"), row(1, "x", 20))
        assert fragment.get((1, "x"))["v"] == 20

    def test_update_missing(self, fragment):
        with pytest.raises(NoSuchRowError):
            apply_update(fragment, (1, "x"), row(1, "x", 20))

    def test_delete(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        apply_delete(fragment, (1, "x"))
        assert fragment.get((1, "x")) is None
        with pytest.raises(NoSuchRowError):
            apply_delete(fragment, (1, "x"))


class TestIndexMaintenance:
    def test_index_lookup(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        apply_insert(fragment, row(2, "y", 10))
        apply_insert(fragment, row(3, "z", 30))
        hits = fragment.index_lookup("by_v", (10,))
        assert {(r["a"], r["b"]) for r in hits} == {(1, "x"), (2, "y")}

    def test_index_follows_update(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        apply_update(fragment, (1, "x"), row(1, "x", 20))
        assert fragment.index_lookup("by_v", (10,)) == []
        assert len(fragment.index_lookup("by_v", (20,))) == 1

    def test_index_follows_delete(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        apply_delete(fragment, (1, "x"))
        assert fragment.index_lookup("by_v", (10,)) == []

    def test_index_lookup_with_predicate(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        apply_insert(fragment, row(1, "y", 10))
        hits = fragment.index_lookup("by_v", (10,),
                                     predicate=lambda r: r["b"] == "y")
        assert len(hits) == 1


    def test_lookup_order_is_insertion_order(self, fragment):
        """Buckets are insertion-ordered, not sets of string-bearing pks:
        the same inserts give the same order under any PYTHONHASHSEED."""
        names = ["q", "b", "zz", "a", "m", "c", "y", "k"]
        for name in names:
            apply_insert(fragment, row(1, name, 10))
        apply_update(fragment, (1, "zz"), row(1, "zz", 10))   # key unchanged
        assert [r["b"] for r in fragment.index_lookup("by_v", (10,))] == names
        apply_update(fragment, (1, "b"), row(1, "b", 11))
        apply_update(fragment, (1, "b"), row(1, "b", 10))     # back: re-appended
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
            apply_insert(frag, row(a, b, 0))
        assert [r["b"] for r in frag.partition_lookup((1,))] == ["z", "y"]
        assert [r["b"] for r in frag.partition_lookup((2,))] == ["x", "a"]
        assert frag.partition_lookup((9,)) == []
        for a in (1, 2, 3):
            assert frag.partition_lookup((a,)) == \
                frag.scan(lambda r, a=a: r["a"] == a)

    def test_lookup_returns_copies_and_applies_predicate(self, frag):
        apply_insert(frag, row(1, "x", 1))
        apply_insert(frag, row(1, "y", 2))
        hits = frag.partition_lookup((1,), lambda r: r["v"] == 2)
        assert [r["b"] for r in hits] == ["y"]
        hits[0]["v"] = 99
        assert frag.get((1, "y"))["v"] == 2

    def test_follows_delete_restore_and_load_but_not_update(self, frag):
        apply_insert(frag, row(1, "x", 1))
        apply_insert(frag, row(1, "y", 2))
        apply_update(frag, (1, "x"), row(1, "x", 5))          # keeps its place
        assert [r["b"] for r in frag.partition_lookup((1,))] == ["x", "y"]
        frag.apply_restore((1, "x"), row(1, "x", 6))         # moves to the end
        assert [r["b"] for r in frag.partition_lookup((1,))] == ["y", "x"]
        assert [r["b"] for r in frag.scan()] == ["y", "x"]
        apply_delete(frag, (1, "y"))
        frag.apply_restore((1, "x"), None)
        assert frag.partition_lookup((1,)) == []
        with frag._lock:
            assert frag._partition_index == {}               # no empty buckets
        other = Fragment(PARTITIONED, partition_id=0)
        apply_insert(other, row(7, "old", 0))
        other.load({(1, "k"): row(1, "k", 3)})
        assert other.partition_lookup((7,)) == []
        assert [r["b"] for r in other.partition_lookup((1,))] == ["k"]

    def test_get_many(self, frag):
        apply_insert(frag, row(1, "x", 1))
        got = frag.get_many([(1, "x"), (1, "nope"), (1, "x")])
        assert [g and g["v"] for g in got] == [1, None, 1]
        got[0]["v"] = 99
        assert frag.get((1, "x"))["v"] == 1


class TestSnapshotRestore:
    def test_snapshot_load_roundtrip(self, fragment):
        for i in range(5):
            apply_insert(fragment, row(i, "n", i * 10))
        snapshot = fragment.snapshot()
        other = Fragment(SCHEMA, partition_id=0)
        other.load(snapshot)
        assert len(other) == 5
        assert other.index_lookup("by_v", (20,))[0]["a"] == 2

    def test_snapshot_is_deep(self, fragment):
        apply_insert(fragment, row(1, "x", 10))
        snapshot = fragment.snapshot()
        apply_update(fragment, (1, "x"), row(1, "x", 99))
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
            apply_insert(fragment, row(i, "n", i))
        evens = fragment.scan(lambda r: r["v"] % 2 == 0)
        assert len(evens) == 5


MIXED = TableSchema(
    name="m", columns=("a", "b", "x", "y", "v"), primary_key=("a", "b"),
    partition_key=("a",), indexes={"by_xy": ("x", "y"), "by_x": ("x",)})


class TestIndexesUnderAnyApplySequence:
    """A seeded mix of every write a fragment takes keeps its indexes
    exact: a reference model replays each write as the ordering rules
    state them (a bucket is insertion-ordered; an update keeps the row's
    place in ``_rows`` and moves its pk to the end of a new bucket only
    when an indexed column changes; a restore re-appends; ``load``
    rebuilds in the order given)."""

    @staticmethod
    def image(rng, a, b):
        return {"a": a, "b": b, "x": rng.randrange(3), "y": rng.randrange(2),
                "v": rng.randrange(100)}

    @staticmethod
    def check(frag, order, buckets):
        with frag._lock:
            assert list(frag._rows) == order
            rows = dict(frag._rows)
            partition = {key: list(bucket)
                         for key, bucket in frag._partition_index.items()}
            indexes = {name: {key: list(bucket)
                              for key, bucket in index.items()}
                       for name, index in frag._indexes.items()}
        recomputed = {}
        for pk in order:  # the partition index lists pks in _rows order
            recomputed.setdefault((pk[0],), []).append(pk)
        assert partition == recomputed
        for name, cols in MIXED.indexes.items():
            recomputed = {}
            for pk, row in rows.items():
                recomputed.setdefault(tuple(row[c] for c in cols), set()).add(pk)
            assert {key: set(pks) for key, pks in indexes[name].items()} \
                == recomputed
            assert indexes[name] == buckets[name]
            assert all(indexes[name].values())  # no empty bucket is kept
            for key in {(x, y)[:len(cols)] for x in range(4) for y in range(3)}:
                hits = frag.index_lookup(name, key)
                assert [MIXED.pk_of(r) for r in hits] == buckets[name].get(key, [])
                assert sorted(hits, key=MIXED.pk_of) == sorted(
                    (r for r in frag.scan()
                     if tuple(r[c] for c in cols) == key), key=MIXED.pk_of)
        for a in range(5):
            assert frag.partition_lookup((a,)) == \
                frag.scan(lambda r, a=a: r["a"] == a)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_sequence(self, seed):
        rng = random.Random(seed)
        frag = Fragment(MIXED, partition_id=0)
        rows, order = {}, []
        buckets = {name: {} for name in MIXED.indexes}

        def unindex(pk, row):
            for name, cols in MIXED.indexes.items():
                key = tuple(row[c] for c in cols)
                buckets[name][key].remove(pk)
                if not buckets[name][key]:
                    del buckets[name][key]

        def index(pk, row):
            for name, cols in MIXED.indexes.items():
                buckets[name].setdefault(
                    tuple(row[c] for c in cols), []).append(pk)

        def put_last(pk, row):
            if pk in rows:
                unindex(pk, rows[pk])
                order.remove(pk)
            if row is not None:
                rows[pk] = row
                order.append(pk)
                index(pk, row)
            else:
                rows.pop(pk, None)

        moved = kept = 0
        for _ in range(300):
            op = rng.choice(["insert", "insert", "update", "update",
                             "delete", "restore", "load"])
            pk = (rng.randrange(4), rng.randrange(6))
            if op == "insert" and pk not in rows:
                row = self.image(rng, *pk)
                apply_insert(frag, row)
                put_last(pk, row)
            elif op == "update" and pk in rows:
                old = rows[pk]
                if rng.random() < 0.5:  # the indexed columns stay
                    row = {**old, "v": rng.randrange(100)}
                else:
                    row = self.image(rng, *pk)
                apply_update(frag, pk, row)
                for name, cols in MIXED.indexes.items():
                    old_key = tuple(old[c] for c in cols)
                    new_key = tuple(row[c] for c in cols)
                    if old_key != new_key:
                        buckets[name][old_key].remove(pk)
                        if not buckets[name][old_key]:
                            del buckets[name][old_key]
                        buckets[name].setdefault(new_key, []).append(pk)
                moved += any(old[c] != row[c] for c in ("x", "y"))
                kept += all(old[c] == row[c] for c in ("x", "y"))
                rows[pk] = row
            elif op == "delete" and pk in rows:
                apply_delete(frag, pk)
                put_last(pk, None)
            elif op == "restore":
                row = self.image(rng, *pk) if rng.random() < 0.7 else None
                frag.apply_restore(pk, row)
                put_last(pk, row)
            elif op == "load":
                pks = list(order)
                rng.shuffle(pks)
                given = {pk: rows[pk] for pk in pks}
                frag.load(given)
                rows.clear()
                order.clear()
                buckets = {name: {} for name in MIXED.indexes}
                for pk, row in given.items():
                    put_last(pk, row)
            self.check(frag, order, buckets)
        assert moved and kept

    @staticmethod
    def state(frag):
        """Rows, partition index and secondary indexes, every order kept."""
        with frag._lock:
            return (list(frag._rows.items()),
                    {key: list(bucket)
                     for key, bucket in frag._partition_index.items()},
                    {name: {key: list(bucket) for key, bucket in index.items()}
                     for name, index in frag._indexes.items()})

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_batches_equal_their_writes_one_by_one(self, seed):
        """A commit's slice applied in one call leaves the fragment as its
        writes applied one call each do, and as ``load`` rebuilds it from
        its rows: the same rows and partition index, in the same order,
        and the same index buckets. Their order is the writes' — an
        update that changes an indexed column re-appends its pk — which
        a rebuild from rows cannot know, so only the one-by-one fragment
        is held to it."""
        rng = random.Random(seed)
        batched = Fragment(MIXED, partition_id=0)
        single = Fragment(MIXED, partition_id=0)
        pks = [(a, b) for a in range(4) for b in range(6)]
        kinds = set()
        for _ in range(80):
            batch = []
            # a transaction writes a pk once: a batch's pks are distinct
            for pk in rng.sample(pks, rng.randrange(1, 10)):
                old = batched.peek(pk)
                if old is None:
                    kind, new = "insert", self.image(rng, *pk)
                elif rng.random() < 0.3:
                    kind, new = "delete", None
                elif rng.random() < 0.5:  # the indexed columns stay
                    kind, new = "update", {**old, "v": rng.randrange(100)}
                else:  # a delete then an insert of the pk nets to this
                    kind, new = "reinsert", self.image(rng, *pk)
                kinds.add(kind)
                batch.append(WriteRecord("m", 0, pk, old, new))
            batched.apply_batch(batch)
            for wrec in batch:
                single.apply_batch([wrec])
            state = self.state(batched)
            assert state == self.state(single)
            rebuilt = Fragment(MIXED, partition_id=0)
            rebuilt.load(batched.snapshot())
            rows, partition, indexes = state
            rebuilt_rows, rebuilt_partition, rebuilt_indexes = \
                self.state(rebuilt)
            assert rows == rebuilt_rows
            assert partition == rebuilt_partition
            for name, index in indexes.items():
                assert {key: set(bucket) for key, bucket in index.items()} \
                    == {key: set(bucket)
                        for key, bucket in rebuilt_indexes[name].items()}
        assert kinds == {"insert", "delete", "update", "reinsert"}

    @pytest.mark.parametrize("bad, error", [
        ("insert", DuplicateKeyError), ("update", NoSuchRowError),
        ("delete", NoSuchRowError)])
    def test_a_bad_write_raises_at_its_row(self, bad, error):
        """A duplicate insert or a missing row raises the per-row error,
        naming its row, with the writes before it applied and none
        after."""
        frag = Fragment(MIXED, partition_id=0)
        rng = random.Random(0)
        present = self.image(rng, 0, 0)
        apply_insert(frag, present)
        bad_write = {
            "insert": WriteRecord("m", 0, (0, 0), None, present),
            "update": WriteRecord("m", 0, (0, 9), OLD, self.image(rng, 0, 9)),
            "delete": WriteRecord("m", 0, (0, 9), OLD, None)}[bad]
        before, after = self.image(rng, 1, 1), self.image(rng, 2, 2)
        with pytest.raises(error, match=r"^m:\(0, [09]\)$"):
            frag.apply_batch([WriteRecord("m", 0, (1, 1), None, before),
                              bad_write,
                              WriteRecord("m", 0, (2, 2), None, after)])
        assert frag.peek((1, 1)) is before
        assert frag.peek((2, 2)) is None
        assert [MIXED.pk_of(r) for r in frag.scan()] == [(0, 0), (1, 1)]
