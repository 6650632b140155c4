"""What one bottom-up delete batch of a subtree delete (paper §6.1) asks
of the lock table, counted call by call (no clocks).

A batch X-locks its inodes as one batch, then deletes its files' leases
and its inodes as one batch each: three ``acquire_many`` calls (two for a
batch without files), and no single ``acquire`` — not one per inode to
re-lock what the batch already holds, nor one per file for its lease.
"""

from repro.ndb.locks import LockManager
from tests.conftest import make_hopsfs


def _build(nn, dirs=3, files=4):
    """/t/d{i}/f{j}, one ``mkdirs`` per level (see the lock witness
    notes in ``test_round_trip_budgets._create_level_by_level``); every
    other file is completed, so only the rest keep a lease."""
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
