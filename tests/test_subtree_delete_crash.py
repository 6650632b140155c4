"""Crash points of the flagged recursive delete (paper §6.1).

A subtree delete reads each inode's ``sub_tables`` bits and scans and
deletes only the tables they name, so the bits must survive every
partial run. The tree below has files that carry blocks, xattrs and
erasure-coding rows, and a directory with a quota. A namenode dies in
the middle of deleting it: after each bottom-up level
(``after_delete_level_N``) and at each commit the delete reaches
(``ndb.commit.before_apply``, which aborts that transaction cleanly).
A second namenode then re-submits the delete. Afterwards fsck is
healthy, no row keyed by a deleted inode's id is left, and no inode is
orphaned.

Each crash runs on both paths a level's units take: on the calling
thread (the engine's round trips do not wait), and, in the
``..._on_the_pool`` tests, on two worker threads (they do,
``network_delay`` > 0).
"""

import threading

import pytest

from repro import faults
from repro.errors import NameNodeUnavailableError
from repro.hopsfs import schema as fs_schema
from repro.hopsfs.fsck import Fsck
from tests.conftest import make_hopsfs

TREE = "/p/tree"
#: the subtree's levels below its root: 1 (a, q), 2 (b and the files
#: of a and q: two batches of at most 8), 3 (the files of b)
LEVELS = (1, 2, 3)

#: the engine's simulated round trip on the pooled path
POOLED = 0.0005


def build(network_delay):
    """Two namenodes and the tree, made one directory level per
    ``mkdirs``. The engine's round trips then take ``network_delay``:
    when that is > 0, a level's units run on two worker threads."""
    fs = make_hopsfs(num_namenodes=2, num_datanodes=4, block_size=8,
                     subtree_parallelism=2)
    client = fs.client("setup", seed=1)
    for path in ("/p", TREE, f"{TREE}/a", f"{TREE}/q", f"{TREE}/a/b"):
        client.mkdirs(path)
    files = ([f"{TREE}/a/b/f{i}" for i in range(3)]
             + [f"{TREE}/a/g{i}" for i in range(8)]
             + [f"{TREE}/q/h{i}" for i in range(6)])
    for path in files:
        client.write_file(path, b"0123456789abcdef", replication=2)
    client.set_xattr(f"{TREE}/a/b/f0", "user.k", "v")
    client.set_xattr(f"{TREE}/a/g1", "user.k", "v")
    client.set_xattr(f"{TREE}/a", "user.k", "v")
    fs.ec.convert(f"{TREE}/a/b/f1", k=2)
    fs.ec.convert(f"{TREE}/q/h2", k=2)
    client.set_quota(f"{TREE}/q", 1000, None)
    client.set_quota(TREE, 1000, None)
    # built without the delay, which would only slow the setup down
    fs.driver.cluster.config.network_delay = network_delay
    return fs


def crash_of(victim):
    def crash():
        victim.kill()
        raise NameNodeUnavailableError("injected namenode crash")

    return crash


def resubmit_and_check(fs):
    """The victim died mid-delete; the survivor finishes the job."""
    survivor = fs.namenodes[1]
    for _ in range(3):
        fs.tick_heartbeats()  # the victim is declared dead
    assert survivor.delete(TREE, recursive=True)
    assert survivor.get_file_info(TREE) is None
    assert survivor.get_file_info("/p") is not None
    report = Fsck(survivor).run()
    assert report.healthy, report.by_check()  # no orphan, nothing unflagged

    def scan(tx):
        live = {r["id"] for r in tx.full_scan("inodes")}
        return live, {table: tx.full_scan(table)
                      for table in (*fs_schema.SUB_TABLE_BITS, "leases")}

    live, rows = fs.driver.session().run(scan)
    left = {table: [r for r in found if r["inode_id"] not in live]
            for table, found in rows.items()}
    assert not any(left.values()), left
    assert fs.driver.cluster._locks.lock_table_size() == 0


def test_the_tree_flags_every_kind_of_sub_row():
    fs = build(0.0)
    rows = fs.driver.session().run(
        lambda tx: {t: tx.full_scan(t) for t in fs_schema.SUB_TABLE_BITS})
    for table in ("blocks", "replicas", "xattrs", "ec_files", "ec_groups",
                  "quotas"):
        assert rows[table], table
    assert Fsck(fs.namenodes[0]).run().healthy


def crash_after_a_level(level, network_delay):
    fs = build(network_delay)
    victim = fs.namenodes[0]
    victim.failpoints[f"after_delete_level_{level}"] = crash_of(victim)
    with pytest.raises(NameNodeUnavailableError):
        victim.delete(TREE, recursive=True)
    resubmit_and_check(fs)


@pytest.mark.parametrize("level", LEVELS)
def test_crash_after_a_level(level):
    crash_after_a_level(level, 0.0)


@pytest.mark.parametrize("level", LEVELS)
def test_crash_after_a_level_on_the_pool(level):
    crash_after_a_level(level, POOLED)


def commits_of_a_delete(network_delay) -> int:
    """How many commits an undisturbed delete of the tree reaches; they
    run on worker threads as well as the caller's only on the pooled
    path."""
    fs = build(network_delay)
    threads = set()
    plan = faults.FaultPlan(seed=1)
    plan.add("ndb.commit.before_apply", action="call", callback="count",
             max_fires=None)
    with faults.installed(plan) as injector:
        injector.register("count", lambda: threads.add(threading.get_ident()))
        assert fs.namenodes[0].delete(TREE, recursive=True)
    assert (len(threads) > 1) == (network_delay > 0)
    return len(injector.fired)


def crash_at_each_commit(network_delay):
    commits = commits_of_a_delete(network_delay)
    # the probe that finds children, phase 1, three quiesce groups (one
    # per level with a directory), four delete batches, the root
    assert commits == 1 + 1 + 3 + 4 + 1
    for skip in range(commits):
        fs = build(network_delay)
        victim = fs.namenodes[0]
        plan = faults.FaultPlan(seed=1)
        plan.add("ndb.commit.before_apply", action="call", callback="crash",
                 skip=skip)
        with faults.installed(plan) as injector:
            injector.register("crash", crash_of(victim))
            with pytest.raises(NameNodeUnavailableError):
                victim.delete(TREE, recursive=True)
        assert len(injector.fired) == 1, skip
        resubmit_and_check(fs)


def test_crash_at_each_commit_of_the_delete():
    crash_at_each_commit(0.0)


def test_crash_at_each_commit_of_the_delete_on_the_pool():
    crash_at_each_commit(POOLED)
