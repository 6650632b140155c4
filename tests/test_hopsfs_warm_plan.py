"""One hint walk per attempt (paper §5.1, Fig. 4).

The transaction hint and the resolve of the same path share one walk of
the inode hint cache: ``tx_hint`` builds the plan, the operation's first
resolve takes it, and a retry — after a stale hint was found and
invalidated — walks the cache again.
"""

import pytest

from repro.errors import FileNotFoundError_, TransactionAbortedError
from repro.faults import FaultPlan, installed
from repro.hopsfs.hintcache import InodeHintCache

from tests.conftest import make_hopsfs

DEPTHS = (1, 3, 5)


def _probes(cache: InodeHintCache) -> int:
    snapshot = cache.snapshot()
    return snapshot["hits"] + snapshot["misses"]


def _warm_file(nn, depth: int) -> str:
    parent = "/" + "/".join(f"d{i}" for i in range(depth - 1))
    path = parent.rstrip("/") + "/f"
    if depth > 1:
        nn.mkdirs(parent)
    nn.create(path, client="c")
    nn.complete(path, "c")
    nn.get_file_info(path)  # every component hinted
    return path


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("op", ["stat", "read", "create"])
def test_a_warm_op_probes_each_component_once(op, depth):
    fs = make_hopsfs(num_namenodes=1)
    nn = fs.namenodes[0]
    path = _warm_file(nn, depth)
    run = {
        "stat": lambda: nn.get_file_info(path),
        "read": lambda: nn.get_block_locations(path),
        "create": lambda: nn.create(path + "-new", client="c"),
    }[op]
    before = _probes(nn.hint_cache)
    run()
    assert _probes(nn.hint_cache) - before == depth
    assert nn.metrics.counter("fs_op_tx_retries_total", op=op).value == 0


def test_a_stale_handed_plan_costs_one_retry_and_is_not_reused():
    """B moves ``/a/b`` away and makes a new ``/a/b``: A's plan for
    ``/a/b/f`` names the old ``b``. Its first attempt finds the hint
    stale under the shared lock and aborts; the retry walks the cache
    again, past the invalidated entry, and finds no ``f``. A retry that
    reused the handed-over plan would meet the same stale key on every
    attempt and run out of them."""
    fs = make_hopsfs(num_namenodes=2)
    nn_a, nn_b = fs.namenodes
    nn_a.mkdirs("/a/b")
    nn_a.create("/a/b/f", client="c")
    old_id = nn_a.get_file_info("/a/b/f").inode_id  # A is warm on it
    nn_b.rename("/a/b", "/a/c")
    nn_b.mkdirs("/a/b")

    assert nn_a.get_file_info("/a/b/f") is None
    assert nn_a.metrics.counter("fs_op_tx_retries_total",
                                op="stat").value == 1
    assert nn_a.hint_cache.invalidations == 1
    assert nn_a.get_file_info("/a/c/f").inode_id == old_id
    assert fs.driver._locks.lock_table_size() == 0


def test_a_stale_handed_plan_with_nothing_held_walks_again():
    """The same stale plan handed to a read-committed resolve (a
    rename's source): nothing is locked, so the resolve drops the plan
    and walks again within the attempt — no retry."""
    fs = make_hopsfs(num_namenodes=2)
    nn_a, nn_b = fs.namenodes
    nn_a.mkdirs("/a/b")
    nn_a.create("/a/b/f", client="c")
    nn_a.get_file_info("/a/b/f")
    nn_b.rename("/a/b", "/a/c")
    nn_b.mkdirs("/a/b")

    with pytest.raises(FileNotFoundError_):
        nn_a.rename("/a/b/f", "/a/b/g")
    assert nn_a.metrics.counter("fs_op_tx_retries_total",
                                op="rename").value == 0
    assert nn_a.hint_cache.invalidations == 1


def test_the_walk_matches_get_one_component_at_a_time():
    """``walk`` counts, orders and stops exactly as ``get`` per name."""
    walked, stepped = InodeHintCache(capacity=3), InodeHintCache(capacity=3)
    for cache in (walked, stepped):
        cache.put(1, "a", 2, 10, True)
        cache.put(2, "b", 3, 11, True)
        cache.put(9, "z", 9, 12, False)
    keys, hints = walked.walk(1, ["a", "b", "c", "d"])
    assert keys == [(10, 1, "a"), (11, 2, "b")]
    assert [h.inode_id for h in hints] == [2, 3]
    stepped.get(1, "a")
    stepped.get(2, "b")
    stepped.get(3, "c")
    assert walked.snapshot() == stepped.snapshot()
    for cache in (walked, stepped):  # same LRU order: "z" goes first
        cache.put(3, "c", 4, 13, False)
        assert cache.get(9, "z") is None


def test_an_error_at_the_site_leaves_the_walk_unlocked():
    cache = InodeHintCache()
    cache.put(1, "a", 2, 10, True)
    cache.put(2, "b", 3, 11, True)
    plan = FaultPlan()
    plan.add("hopsfs.hintcache.get", action="error",
             error="TransactionAbortedError", match={"name": "b"})
    with installed(plan) as injector:
        with pytest.raises(TransactionAbortedError, match="injected"):
            cache.walk(1, ["a", "b"])
        assert [f.ctx for f in injector.fired] == [
            {"parent_id": 2, "name": "b"}]
    assert cache.hits == 1  # "a" was probed before the error
    assert cache.get(2, "b").inode_id == 3  # the mutex is free


def _five_deep() -> InodeHintCache:
    """A cache holding ``/a/b/c/d/e``: ``a`` under inode 1, each next
    name under the inode the previous one names."""
    cache = InodeHintCache()
    for i, name in enumerate("abcde"):
        cache.put(i + 1, name, i + 2, 10 + i, name != "e")
    return cache


def test_the_walk_fires_its_site_once_per_probed_name():
    """With an injector installed the site fires at each probed name,
    in order; a veto at the third name is that probe's miss and ends
    the walk there."""
    cache = _five_deep()
    plan = FaultPlan()
    plan.add("hopsfs.hintcache.get", action="delay", max_fires=None)
    plan.add("hopsfs.hintcache.get", action="veto", skip=2)
    with installed(plan) as injector:
        keys, hints = cache.walk(1, list("abcde"))
    assert [(f.seq, f.spec_index, f.action, f.ctx) for f in injector.fired] \
        == [(1, 0, "delay", {"parent_id": 1, "name": "a"}),
            (2, 0, "delay", {"parent_id": 2, "name": "b"}),
            (3, 0, "delay", {"parent_id": 3, "name": "c"}),
            (4, 1, "veto", {"parent_id": 3, "name": "c"})]
    assert keys == [(10, 1, "a"), (11, 2, "b")]
    assert (cache.hits, cache.misses) == (2, 1)


def test_a_walk_without_an_injector_calls_no_fault_point(monkeypatch):
    """The walk reads the installed injector once: with none, its
    five probes make no ``fault_point`` call."""
    from repro.hopsfs import hintcache

    calls = []
    monkeypatch.setattr(hintcache, "fault_point",
                        lambda site, **ctx: calls.append(site) or False)
    cache = _five_deep()
    keys, hints = cache.walk(1, list("abcde"))
    assert len(keys) == 5 and cache.hits == 5
    assert calls == []
    with installed(FaultPlan()):
        cache.walk(1, list("abcde"))
    assert calls == ["hopsfs.hintcache.get"] * 5
