"""What one bottom-up delete batch of a subtree delete (paper §6.1) asks
of the lock table, counted call by call (no clocks).

A batch X-locks its inodes as one batch, then deletes its files' leases
and its inodes as one batch each: three ``acquire_many`` calls (two for a
batch without files), and no single ``acquire`` — not one per inode to
re-lock what the batch already holds, nor one per file for its lease.
"""

import pytest

from repro.hopsfs.hintcache import InodeHintCache
from repro.ndb.locks import LockManager
from repro.ndb.transaction import Transaction
from tests.conftest import make_hopsfs


def _build(nn, dirs=3, files=4):
    """/t/d{i}/f{j}; every other file is completed, so only the rest
    keep a lease."""
    nn.mkdirs("/t")
    for d in range(dirs):
        nn.mkdirs(f"/t/d{d}")
        for f in range(files):
            path = f"/t/d{d}/f{f}"
            nn.create(path, client="c")
            if f % 2:
                assert nn.complete(path, client="c")


def _count_batches(monkeypatch, nn):
    """Per delete batch, the lock calls it made: ``("acquire", key)`` or
    ``("acquire_many", tables of its keys)``."""
    batches = []
    real_acquire = LockManager.acquire
    real_acquire_many = LockManager.acquire_many
    real_batch = nn._delete_batch

    def acquire(self, owner, key, mode, *args, **kwargs):
        if batches and batches[-1] is not None:
            batches[-1].append(("acquire", key))
        return real_acquire(self, owner, key, mode, *args, **kwargs)

    def acquire_many(self, owner, keys, mode, *args, **kwargs):
        keys = list(keys)
        if batches and batches[-1] is not None:
            batches[-1].append(
                ("acquire_many", sorted({table for table, _ in keys})))
        return real_acquire_many(self, owner, keys, mode, *args, **kwargs)

    def delete_batch(nodes):
        batches.append([])
        try:
            real_batch(nodes)
        finally:
            batches.append(None)  # calls outside a batch are not counted

    monkeypatch.setattr(LockManager, "acquire", acquire)
    monkeypatch.setattr(LockManager, "acquire_many", acquire_many)
    monkeypatch.setattr(nn, "_delete_batch", delete_batch)
    return batches


def test_a_delete_batch_makes_no_single_lock_call(monkeypatch):
    fs = make_hopsfs(num_namenodes=1)  # subtree_batch_size 8
    nn = fs.namenodes[0]
    _build(nn)
    batches = _count_batches(monkeypatch, nn)
    assert nn.delete("/t", recursive=True)
    calls = [batch for batch in batches if batch is not None]
    # bottom-up: 12 files in batches of 8 and 4, then the 3 directories
    assert len(calls) == 3
    assert [call for batch in calls for call in batch
            if call[0] == "acquire"] == []
    files_batch = [("acquire_many", ["inodes"]),
                   ("acquire_many", ["leases"]),
                   ("acquire_many", ["inodes"])]
    assert calls == [files_batch, files_batch,
                     [("acquire_many", ["inodes"]),
                      ("acquire_many", ["inodes"])]]
    # nothing left behind: no inode below /t, no lease
    session = fs.driver.session()
    assert session.run(lambda tx: tx.full_scan("leases")) == []
    assert not fs.client("reader").exists("/t")
    assert fs.driver._locks.lock_table_size() == 0


class _CountingLock:
    """A fragment's lock that counts its holds while ``rounds`` is a
    list (it appends one per hold) and is otherwise the lock."""

    rounds = None

    def __init__(self, lock):
        self._inner = lock

    def __enter__(self):
        if _CountingLock.rounds is not None:
            _CountingLock.rounds.append(1)
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)

    def _is_owned(self):  # the guard sanitizer's ownership probe
        return self._inner._is_owned()


# the lock witness ranks an inode lock by reading inode rows, under the
# fragment locks this test counts
@pytest.mark.lock_witness_exempt
def test_a_delete_batch_checks_each_shard_once(monkeypatch):
    """``delete_batch`` finds which of its keys exist with one hold of
    each touched shard's fragment lock, not one per key."""
    fs = make_hopsfs(num_namenodes=1)
    nn = fs.namenodes[0]
    _build(nn)
    engine = fs.driver
    for node in engine.datanodes:
        for frag in node.fragments.values():
            frag._lock = _CountingLock(frag._lock)
    calls = []
    real = Transaction.delete_batch

    def delete_batch(self, table, keys):
        shards = {engine.partition_of(table, tuple(key)) for key in keys}
        _CountingLock.rounds = []
        try:
            real(self, table, keys)
        finally:
            calls.append((table, len(keys), len(shards),
                          len(_CountingLock.rounds)))
            _CountingLock.rounds = None

    monkeypatch.setattr(Transaction, "delete_batch", delete_batch)
    assert nn.delete("/t", recursive=True)
    assert [(table, keys) for table, keys, _, _ in calls] == [
        ("leases", 8), ("inodes", 8), ("leases", 4), ("inodes", 4),
        ("leases", 0), ("inodes", 3)]
    assert all(rounds <= shards for _, _, shards, rounds in calls), calls
    assert sum(keys for _, keys, _, _ in calls) > \
        sum(shards for _, _, shards, _ in calls)
    assert not fs.client("reader").exists("/t")


def test_invalidate_many_counts_as_one_invalidate_per_key():
    """``invalidate_many`` (a delete batch's one mutex round) leaves the
    cache as one ``invalidate`` per key would: its entries in LRU order,
    ``invalidations``, ``hit_rate`` and ``snapshot()``."""
    caches = [InodeHintCache(capacity=6), InodeHintCache(capacity=6)]
    for cache in caches:
        for i in range(8):  # two evictions
            cache.put(1, f"n{i}", 10 + i, 1, i % 2 == 0)
        for name in ("n3", "n0", "n7", "missing"):
            cache.get(1, name)
    keys = [(1, "n3"), (1, "absent"), (2, "n4"), (1, "n5"), (1, "n3"),
            (1, "n7")]
    for key in keys:
        caches[0].invalidate(*key)
    caches[1].invalidate_many(keys)
    one_by_one, batched = caches
    assert batched.invalidations == one_by_one.invalidations == 3
    assert batched.hit_rate == one_by_one.hit_rate
    assert batched.snapshot() == one_by_one.snapshot()
    with one_by_one._mutex, batched._mutex:
        assert list(batched._entries) == list(one_by_one._entries)


def test_phase_three_deletes_the_quiesced_levels_deepest_first(monkeypatch):
    """Each level of the quiesce is cut into ceil(n / 64) batches at the
    default batch size, and the levels are deleted deepest first, each
    followed by its ``after_delete_level_{N}`` failpoint."""
    fs = make_hopsfs(num_namenodes=1, subtree_batch_size=64)
    nn = fs.namenodes[0]
    _build(nn, dirs=3, files=50)  # levels of 3 directories and 150 files
    events = []
    real_batch = nn._delete_batch
    real_failpoint = nn._subtree_failpoint

    def delete_batch(nodes):
        events.append(len(nodes))
        real_batch(nodes)

    def failpoint(tag):
        events.append(tag)
        real_failpoint(tag)

    monkeypatch.setattr(nn, "_delete_batch", delete_batch)
    monkeypatch.setattr(nn, "_subtree_failpoint", failpoint)
    assert nn.delete("/t", recursive=True)
    assert events == ["after_quiesce",
                      64, 64, 22, "after_delete_level_2",
                      3, "after_delete_level_1"]
    assert not fs.client("reader").exists("/t")
