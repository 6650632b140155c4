"""Multi-threaded integration tests: parallel clients on multiple namenodes.

The paper's central claim is that HopsFS serializes *conflicting*
operations with row locks while non-conflicting operations proceed in
parallel on many namenodes (§5.2). These tests hammer a real cluster with
threads and assert the namespace ends up exactly consistent.
"""

import threading

from repro.errors import FileAlreadyExistsError
from tests.conftest import make_hopsfs


def run_threads(workers):
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors[:3]


def test_parallel_creates_in_distinct_dirs():
    fs = make_hopsfs(num_namenodes=3)
    n_clients, files_each = 4, 15

    def worker(idx):
        client = fs.client(f"c{idx}", seed=idx)
        for i in range(files_each):
            client.create(f"/user/u{idx}/f{i}")

    run_threads([lambda i=i: worker(i) for i in range(n_clients)])
    client = fs.client("verify")
    for idx in range(n_clients):
        assert len(client.list_status(f"/user/u{idx}").entries) == files_each
    assert fs.driver.table_size("inodes") == 1 + n_clients * (1 + files_each)


def test_parallel_creates_same_dir():
    fs = make_hopsfs(num_namenodes=2)
    fs.client("setup").mkdirs("/shared")
    n_clients, files_each = 4, 10

    def worker(idx):
        client = fs.client(f"c{idx}", seed=idx)
        for i in range(files_each):
            client.create(f"/shared/c{idx}_f{i}")

    run_threads([lambda i=i: worker(i) for i in range(n_clients)])
    listing = fs.client("verify").list_status("/shared")
    assert len(listing.entries) == n_clients * files_each


def test_racing_creates_of_same_file_exactly_one_wins():
    fs = make_hopsfs(num_namenodes=2)
    fs.client("setup").mkdirs("/race")
    winners = []
    losers = []
    barrier = threading.Barrier(4)

    def worker(idx):
        client = fs.client(f"c{idx}", seed=idx)
        barrier.wait()
        try:
            client.create("/race/target")
            winners.append(idx)
        except FileAlreadyExistsError:
            losers.append(idx)

    run_threads([lambda i=i: worker(i) for i in range(4)])
    assert len(winners) == 1
    assert len(losers) == 3


def test_racing_mkdirs_converge():
    fs = make_hopsfs(num_namenodes=2)
    barrier = threading.Barrier(4)

    def worker(idx):
        client = fs.client(f"c{idx}", seed=idx)
        barrier.wait()
        assert client.mkdirs("/a/b/c/d")

    run_threads([lambda i=i: worker(i) for i in range(4)])
    # exactly one chain was created
    assert fs.driver.table_size("inodes") == 4


def test_rename_vs_stat_consistency():
    """Concurrent readers always see the file at exactly one path."""
    fs = make_hopsfs(num_namenodes=2)
    setup = fs.client("setup")
    setup.write_file("/d/file0", b"x")
    stop = threading.Event()
    anomalies = []

    def renamer():
        client = fs.client("renamer")
        for i in range(20):
            client.rename(f"/d/file{i}", f"/d/file{i + 1}")
        stop.set()

    def reader():
        client = fs.client("reader", seed=99)
        while not stop.is_set():
            listing = client.list_status("/d")
            if len(listing.entries) != 1:
                anomalies.append([e.path for e in listing.entries])

    run_threads([renamer, reader])
    assert not anomalies
    assert fs.client("verify").exists("/d/file20")


def test_delete_subtree_vs_writers():
    """Writers racing a recursive delete either land before the subtree
    lock or fail cleanly — the namespace is never left half applied."""
    fs = make_hopsfs(num_namenodes=2)
    setup = fs.client("setup")
    for i in range(10):
        setup.create(f"/victim/f{i}")
    started = threading.Event()

    def deleter():
        client = fs.client("deleter")
        started.wait()
        client.delete("/victim", recursive=True)

    def writer():
        client = fs.client("writer", seed=5)
        started.set()
        for i in range(10):
            try:
                client.create(f"/victim/new{i}", create_parents=False)
            except Exception:
                break  # directory disappeared; acceptable

    run_threads([deleter, writer])
    # referential integrity must hold whatever the interleaving was:
    # every inode's parent exists, and no dependent row is orphaned.
    session = fs.driver.session()
    inodes = session.run(lambda tx: tx.full_scan("inodes"))
    ids = {r["id"] for r in inodes} | {1}
    assert all(r["parent_id"] in ids for r in inodes)
    for table in ("blocks", "leases"):
        rows = session.run(lambda tx, t=table: tx.full_scan(t))
        assert all(r["inode_id"] in ids for r in rows)


def test_concurrent_ops_across_namenodes_one_namespace():
    fs = make_hopsfs(num_namenodes=3)

    def worker(idx):
        nn = fs.namenodes[idx % len(fs.namenodes)]
        for i in range(10):
            nn.mkdirs(f"/common/dir{idx}_{i}")

    run_threads([lambda i=i: worker(i) for i in range(3)])
    listing = fs.client("verify").list_status("/common")
    assert len(listing.entries) == 30


def test_id_allocation_unique_across_namenodes():
    fs = make_hopsfs(num_namenodes=3)
    ids = []
    mutex = threading.Lock()

    def worker(idx):
        nn = fs.namenodes[idx]
        batch = [nn.id_alloc.next() for _ in range(500)]
        with mutex:
            ids.extend(batch)

    run_threads([lambda i=i: worker(i) for i in range(3)])
    assert len(ids) == len(set(ids)) == 1500


def test_fsck_healthy_after_concurrent_chaos():
    """Mixed concurrent workload + namenode failure, then a full fsck:
    every referential invariant must hold."""
    from repro.hopsfs.fsck import Fsck

    fs = make_hopsfs(num_namenodes=3)
    setup = fs.client("setup")
    for i in range(5):
        setup.write_file(f"/base/f{i}", b"x", replication=2)

    def churn(idx):
        client = fs.client(f"c{idx}", seed=idx)
        for i in range(12):
            try:
                client.create(f"/churn{idx}/f{i}")
                if i % 3 == 0:
                    client.rename(f"/churn{idx}/f{i}", f"/churn{idx}/r{i}")
                if i % 4 == 0:
                    client.delete(f"/churn{idx}/r{i}", recursive=True)
            except Exception:
                pass  # raced namenode kill; retried ops may still fail

    def killer():
        import time

        time.sleep(0.05)
        victim = fs.live_namenodes()[-1]
        victim.kill()

    run_threads([lambda i=i: churn(i) for i in range(3)] + [killer])
    for _ in range(3):
        fs.tick_heartbeats()
    report = Fsck(fs.live_namenodes()[0]).run(repair=True)
    structural = [i for i in report.issues if not i.repairable]
    assert structural == [], structural
    # after repair, a second pass is fully clean
    assert Fsck(fs.live_namenodes()[0]).run().healthy


def test_lock_manager_sees_no_deadlocks_under_normal_workload():
    """The total-order locking discipline (§5) means the deadlock
    detector should never fire for ordinary operation mixes."""
    fs = make_hopsfs(num_namenodes=2)

    def worker(idx):
        client = fs.client(f"c{idx}", seed=idx)
        for i in range(15):
            client.create(f"/shared/dir{i % 3}/c{idx}_f{i}")
            client.stat(f"/shared/dir{i % 3}")
            if i % 5 == 0:
                client.list_status(f"/shared/dir{i % 3}")

    fs.client("setup").mkdirs("/shared/dir0")
    fs.client("setup").mkdirs("/shared/dir1")
    fs.client("setup").mkdirs("/shared/dir2")
    run_threads([lambda i=i: worker(i) for i in range(4)])
    assert fs.driver.cluster._locks.deadlocks == 0


def test_batched_quiesce_vs_inode_ops_keeps_one_lock_order():
    """Level-wide quiesce transactions (several directories' children in
    one ``(table, pk)``-ordered lock batch) race create, rename, file
    delete and a nested recursive delete's ``_delete_batch`` in the same
    subtree: the acquisition-order graph stays acyclic with no upgrade,
    no lock outlives the run and the namespace checks out."""
    from repro.analysis import lockwitness
    from repro.errors import FileNotFoundError_, SubtreeLockedError
    from repro.hopsfs.fsck import Fsck
    from repro.ndb.locks import LockManager
    from repro.util.rwlock import ReadWriteLock

    fs = make_hopsfs(num_namenodes=2, subtree_batch_size=4)
    setup = fs.client("setup")
    dirs = 6  # created in name order: path order == pk order across them
    for d in range(dirs):
        for f in range(4):
            setup.create(f"/p/q/tree/d{d}/f{f}")
    rounds = 12

    def tolerant(op, *args, **kwargs):
        try:
            op(*args, **kwargs)
        except (SubtreeLockedError, FileNotFoundError_,
                FileAlreadyExistsError):
            pass  # lost a race against another worker: fine

    def quiescer():  # levels {tree} and {d0..d5}: groups of 4 + 2
        nn = fs.namenodes[0]
        for i in range(rounds):
            tolerant(nn.chown_subtree, "/p/q/tree", f"u{i}", "g")

    def creator():
        client = fs.client("creator", seed=1)
        for i in range(rounds):
            tolerant(client.create, f"/p/q/tree/d{i % dirs}/new{i}")

    def renamer():
        client = fs.client("renamer", seed=2)
        for i in range(rounds):
            here = f"/p/q/tree/d{i % (dirs - 1)}/f0"
            there = f"/p/q/tree/d{i % (dirs - 1) + 1}/moved{i}"
            tolerant(client.rename, here, there)
            tolerant(client.rename, there, here)

    def deleter():
        client = fs.client("deleter", seed=3)
        for i in range(rounds):
            tolerant(client.delete, f"/p/q/tree/d{i % dirs}/f3")
            if i == rounds // 2:  # phase 3 of another subtree op
                tolerant(client.delete, "/p/q/tree/d5", recursive=True)

    previous = lockwitness.current_witness()
    witness = lockwitness.install_witness()
    try:
        run_threads([quiescer, creator, renamer, deleter])
    finally:
        LockManager._witness = ReadWriteLock._witness = previous
        lockwitness._current = previous
    report = witness.report()
    assert report.ok, report.render()
    assert witness.edge_count() > 0
    assert fs.driver.cluster._locks.lock_table_size() == 0
    assert Fsck(fs.namenodes[0]).run().healthy
