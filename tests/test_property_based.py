"""Property-based tests (hypothesis) on core data structures and
invariants: the NDB engine vs a dict oracle, the lock manager's
compatibility invariants, partition placement, the hint cache, path
utilities and statistics helpers."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import DuplicateKeyError, NoSuchRowError
from repro.hopsfs.hintcache import InodeHintCache
from repro.hopsfs.paths import join_path, normalize, split_path
from repro.metrics.registry import HistogramMetric
from repro.ndb import LockMode, NDBCluster, NDBConfig, TableSchema
from repro.ndb.locks import LockManager
from repro.ndb.partition import PartitionMap, stable_hash
from repro.util.stats import percentile
from tests.test_ndb_failures import assert_indexes_match_rows

FAST = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# NDB engine vs dict oracle
# ---------------------------------------------------------------------------

_KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))

_ops = st.lists(
    st.tuples(st.sampled_from(["put", "overwrite", "delete", "get"]),
              st.integers(min_value=0, max_value=20),
              st.integers(min_value=0, max_value=999)),
    min_size=1, max_size=40)


@FAST
@given(_ops)
def test_engine_matches_dict_oracle(ops):
    cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2,
                                   lock_timeout=0.5))
    cluster.create_table(_KV)
    oracle: dict[int, int] = {}
    for op, key, value in ops:
        with cluster.begin() as tx:
            if op == "put":
                if key in oracle:
                    with pytest.raises(DuplicateKeyError):
                        tx.insert("kv", {"k": key, "v": value})
                    tx.abort()
                else:
                    tx.insert("kv", {"k": key, "v": value})
                    oracle[key] = value
            elif op == "overwrite":
                tx.write("kv", {"k": key, "v": value})
                oracle[key] = value
            elif op == "delete":
                if key in oracle:
                    tx.delete("kv", (key,))
                    del oracle[key]
                else:  # a no-op: the final scan shows nothing went
                    tx.delete("kv", (key,), must_exist=False)
            else:
                row = tx.read("kv", (key,))
                assert (row["v"] if row else None) == oracle.get(key)
    with cluster.begin() as tx:
        rows = tx.full_scan("kv")
    assert {r["k"]: r["v"] for r in rows} == oracle


@FAST
@given(_ops)
def test_engine_oracle_survives_node_failover(ops):
    cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2,
                                   lock_timeout=0.5))
    cluster.create_table(_KV)
    oracle: dict[int, int] = {}
    for i, (op, key, value) in enumerate(ops):
        if i == len(ops) // 2:
            cluster.kill_node(0)
        with cluster.begin() as tx:
            if op in ("put", "overwrite"):
                tx.write("kv", {"k": key, "v": value})
                oracle[key] = value
            elif op == "delete":
                tx.delete("kv", (key,), must_exist=False)
                oracle.pop(key, None)
    with cluster.begin() as tx:
        rows = tx.full_scan("kv")
    assert {r["k"]: r["v"] for r in rows} == oracle


@FAST
@given(_ops, st.integers(min_value=0, max_value=3))
def test_aborted_transactions_leave_no_trace(ops, abort_every):
    cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2,
                                   lock_timeout=0.5))
    cluster.create_table(_KV)
    oracle: dict[int, int] = {}
    for i, (op, key, value) in enumerate(ops):
        tx = cluster.begin()
        try:
            if op == "delete":
                tx.delete("kv", (key,), must_exist=False)
            else:
                tx.write("kv", {"k": key, "v": value})
            if abort_every and i % (abort_every + 1) == abort_every:
                tx.abort()
            else:
                tx.commit()
                if op == "delete":
                    oracle.pop(key, None)
                else:
                    oracle[key] = value
        finally:
            if tx.state.value == "active":
                tx.abort()
    with cluster.begin() as tx:
        rows = tx.full_scan("kv")
    assert {r["k"]: r["v"] for r in rows} == oracle


# ---------------------------------------------------------------------------
# Partition-pruned index scan vs brute force over full_scan
# ---------------------------------------------------------------------------

_PT = TableSchema(name="pt", columns=("p", "k", "v"), primary_key=("p", "k"),
                  partition_key=("p",), indexes={"by_v": ("v",)})

# small domains, so that runs collide on rows and partition values
_P = st.integers(min_value=0, max_value=2)
_K = st.sampled_from(["c", "a", "b"])
_V = st.integers(min_value=0, max_value=3)
_PREDICATES = {
    "none": None,
    "even": lambda row: row["v"] % 2 == 0,
    "big": lambda row: row["v"] >= 2,
}

_scan_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "write", "update"]), _P, _K, _V),
        st.tuples(st.just("delete"), _P, _K),
        st.tuples(st.just("scan"), _P, st.sampled_from(sorted(_PREDICATES)),
                  st.sampled_from(list(LockMode)),
                  st.sampled_from([None, ("k",), ("v", "p")])),
        st.tuples(st.just("write_u"), _P, _K, _V),
        st.tuples(st.just("batch"), st.lists(
            st.tuples(st.sampled_from(["pt", "pu"]), _P), max_size=5),
            st.sampled_from(list(LockMode))),
        st.tuples(st.sampled_from(["commit", "commit", "commit", "abort",
                                   "epoch", "lcp", "crash"])),
        st.tuples(st.sampled_from(["kill", "restart"]),
                  st.integers(min_value=0, max_value=1)),
    ),
    min_size=1, max_size=50)

#: a second table for the batched scans to mix in
_PU = TableSchema(name="pu", columns=("p", "k", "v"), primary_key=("p", "k"),
                  partition_key=("p",))


def _check_ppis(cluster, tx, p, predicate, lock, columns):
    """``ppis`` == the brute-force filter over ``full_scan``, in order."""

    def brute(row):
        return row["p"] == p and (predicate is None or predicate(row))

    expected = tx.full_scan("pt", brute)
    if lock is not LockMode.READ_COMMITTED:
        # a locking scan returns the committed matches in pk (= lock)
        # order; rows only this transaction's writes bring in still follow
        with cluster.begin() as other:
            committed = {(r["p"], r["k"]) for r in other.full_scan("pt", brute)}
        first = [r for r in expected if (r["p"], r["k"]) in committed]
        rest = [r for r in expected if (r["p"], r["k"]) not in committed]
        expected = sorted(first, key=_PT.pk_of) + rest
    if columns is not None:
        expected = [{c: r[c] for c in columns} for r in expected]
    assert tx.ppis("pt", {"p": p}, predicate, lock, columns) == expected


def _totals(stats):
    return stats.round_trips, stats.rows_read, stats.rows_locked


def _check_ppis_batch(tx, scans, lock):
    """``ppis_batch`` == the single scans at the same lock mode, in
    order, for one round trip (none when the batch is empty) and the
    same rows read and rows locked counted."""
    scans = [(table, {"p": p}) for table, p in scans]
    trips, rows, locked = _totals(tx.stats)
    expected = [tx.ppis(table, values, lock=lock) for table, values in scans]
    single_trips, single_rows, single_locked = _totals(tx.stats)
    assert single_trips - trips == len(scans)
    assert tx.ppis_batch(scans, lock=lock) == expected
    batch_trips, batch_rows, batch_locked = _totals(tx.stats)
    assert batch_trips - single_trips == (1 if scans else 0)
    assert batch_rows - single_rows == single_rows - rows
    assert batch_locked - single_locked == single_locked - locked
    if scans:
        assert tx.stats.events[-1].locked == (
            lock is not LockMode.READ_COMMITTED)


@FAST
@pytest.mark.lock_witness_exempt  # one thread; locks rows in workload order
@given(_scan_steps)
def test_ppis_equals_brute_force_scan(steps):
    """Through commits, aborts, buffered writes, node kill/restart and
    crash recovery the partition-key index answers exactly what a filter
    over every row answers, a batch of scans answers exactly what the
    single scans answer, and every replica's indexes match its rows."""
    cluster = NDBCluster(NDBConfig(num_datanodes=2, replication=2,
                                   lock_timeout=0.5))
    cluster.create_table(_PT)
    cluster.create_table(_PU)
    tx = cluster.begin()
    for step in steps:
        if tx.state.value != "active":  # ended, or aborted by a failure
            tx = cluster.begin()
        op = step[0]
        if op == "write_u":
            tx.write("pu", dict(zip(("p", "k", "v"), step[1:], strict=True)))
        elif op == "batch":
            _check_ppis_batch(tx, step[1], step[2])
        elif op in ("insert", "write", "update"):
            _, p, k, v = step
            try:
                if op == "update":
                    tx.update("pt", (p, k), {"v": v})
                else:
                    getattr(tx, op)("pt", {"p": p, "k": k, "v": v})
            except (DuplicateKeyError, NoSuchRowError):
                pass  # the transaction stays usable
        elif op == "delete":
            tx.delete("pt", step[1:], must_exist=False)
        elif op == "scan":
            _, p, pred, lock, columns = step
            _check_ppis(cluster, tx, p, _PREDICATES[pred], lock, columns)
        elif op == "commit":
            tx.commit()
        elif op == "abort":
            tx.abort()
        elif op == "epoch":
            cluster.complete_epoch()
        elif op == "lcp":
            cluster.local_checkpoint()
        elif op == "crash":
            cluster.crash_and_recover()  # load + undo/redo apply_restore
        elif op == "kill":
            if len(cluster.live_nodes()) > 1:
                cluster.kill_node(step[1])
        elif op == "restart":
            cluster.restart_node(step[1])  # load from the surviving peer
    if tx.state.value == "active":
        tx.commit()
    with cluster.begin() as tx:
        for p in range(3):
            _check_ppis(cluster, tx, p, None, LockMode.SHARED, None)
    for node in cluster.datanodes:
        for frag in node.fragments.values():
            assert_indexes_match_rows(frag)


_driver_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(["pt", "pu"]), _P, _K, _V),
        st.tuples(st.just("delete"), st.sampled_from(["pt", "pu"]), _P, _K),
        st.tuples(st.just("batch"), st.lists(
            st.tuples(st.sampled_from(["pt", "pu"]), _P), max_size=5),
            st.sampled_from(list(LockMode))),
        st.tuples(st.sampled_from(["commit", "commit", "abort"])),
    ),
    min_size=1, max_size=30)


@pytest.fixture(scope="module")
def _three_drivers():
    from repro.dal import MemoryDriver, NDBDriver, RemoteDriver
    from repro.rpc import NDBServer

    config = NDBConfig(num_datanodes=2, replication=2, lock_timeout=0.5)
    with NDBServer(config=config) as server:
        remote = RemoteDriver(server.host, server.port, timeout=10.0)
        try:
            yield {"ndb": NDBDriver(config=config), "memory": MemoryDriver(),
                   "remote": remote}
        finally:
            remote.close()


_example_ids = iter(range(1 << 30))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@pytest.mark.lock_witness_exempt  # one thread; locks rows in workload order
@given(_driver_steps)
def test_ppis_batch_agrees_across_drivers(_three_drivers, steps):
    """The same writes, commits, aborts and batched scans — unlocked,
    shared and exclusive — against the ndb, memory and remote drivers:
    every batch returns the same rows in one event with the same locked
    flag and costs the same round trips and rows read on all three, and
    every committed transaction counts the same rows locked (the memory
    driver's one mutex takes no row lock; it counts the ones NDB
    takes)."""
    suffix = f"_{next(_example_ids)}"  # tables cannot be dropped
    observed = {}
    for name, driver in _three_drivers.items():
        for schema in (_PT, _PU):
            driver.create_table(TableSchema(
                name=schema.name + suffix, columns=schema.columns,
                primary_key=schema.primary_key,
                partition_key=schema.partition_key))
        session = driver.session()
        seen = observed[name] = []
        tx = session.begin()
        for step in steps:
            op = step[0]
            if op == "write":
                tx.write(step[1] + suffix,
                         dict(zip(("p", "k", "v"), step[2:], strict=True)))
            elif op == "delete":
                tx.delete(step[1] + suffix, step[2:], must_exist=False)
            elif op == "batch":
                trips, rows, _ = _totals(tx.stats)
                events = len(tx.stats.events)
                batch = tx.ppis_batch([(table + suffix, {"p": p})
                                       for table, p in step[1]], lock=step[2])
                seen.append(([sorted(map(_PT.pk_of, found)) for found in batch],
                             tx.stats.round_trips - trips,
                             tx.stats.rows_read - rows,
                             [e.locked for e in tx.stats.events[events:]]))
            else:
                getattr(tx, op)()
                if op == "commit":
                    # remote ships buffered writes (and counts their
                    # locks) with the next request: totals agree once
                    # the commit has carried the last of them
                    seen.append(tx.stats.rows_locked)
                tx = session.begin()
        tx.abort()
    assert observed["ndb"] == observed["remote"] == observed["memory"]


_ride_steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(["pt", "pu"]), _P, _K, _V),
        st.tuples(st.just("delete"), st.sampled_from(["pt", "pu"]), _P, _K),
        st.tuples(st.just("ride"),
                  st.lists(st.tuples(_P, _K, st.sampled_from(list(LockMode))),
                           min_size=1, max_size=4),
                  st.lists(st.tuples(st.sampled_from(["pt", "pu"]), _P),
                           max_size=4),
                  st.booleans()),
        st.tuples(st.sampled_from(["commit", "commit", "abort"])),
    ),
    min_size=1, max_size=30)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@pytest.mark.lock_witness_exempt  # one thread; locks rows in workload order
@given(_ride_steps)
def test_read_batch_with_scans_agrees_across_drivers(_three_drivers, steps):
    """``read_batch(t, keys, locks=L, scans=S)`` is ``(read_batch(t, keys,
    locks=L), ppis_batch(S))`` — buffered writes visible in both halves —
    for ONE round trip, ONE ``BATCH_PK`` event and the same rows read, on
    the ndb, memory and remote drivers alike; with ``commit=True`` (asked
    for only of a transaction that wrote nothing) it also ends the
    transaction."""
    suffix = f"_{next(_example_ids)}"  # tables cannot be dropped
    observed = {}
    for name, driver in _three_drivers.items():
        for schema in (_PT, _PU):
            driver.create_table(TableSchema(
                name=schema.name + suffix, columns=schema.columns,
                primary_key=schema.primary_key,
                partition_key=schema.partition_key))
        session = driver.session()
        seen = observed[name] = []
        tx, wrote = session.begin(), False
        for step in steps:
            op = step[0]
            if op == "write":
                tx.write(step[1] + suffix,
                         dict(zip(("p", "k", "v"), step[2:], strict=True)))
                wrote = True
            elif op == "delete":
                tx.delete(step[1] + suffix, step[2:], must_exist=False)
                wrote = True
            elif op == "ride":
                keys = [(p, k) for p, k, _mode in step[1]]
                locks = [mode for _p, _k, mode in step[1]]
                scans = [(table + suffix, {"p": p}) for table, p in step[2]]
                commit = step[3] and not wrote
                apart = (tx.read_batch("pt" + suffix, keys, locks=locks),
                         tx.ppis_batch(scans))
                trips, rows, _ = _totals(tx.stats)
                events = len(tx.stats.events)
                together = tx.read_batch("pt" + suffix, keys, locks=locks,
                                         scans=scans, commit=commit)
                assert together == apart
                [event] = tx.stats.events[events:]
                assert event.kind.name == "BATCH_PK"
                assert tx.stats.round_trips - trips == 1
                found = sum(r is not None for r in apart[0]) + sum(
                    map(len, apart[1]))
                assert tx.stats.rows_read - rows == event.rows == found
                seen.append((together[0],
                             [sorted(map(_PT.pk_of, rows_of))
                              for rows_of in together[1]],
                             event.table.replace(suffix, ""),
                             event.locked, tx.state.name))
                if commit:
                    assert tx.state.name == "COMMITTED"
                    tx = session.begin()
            else:
                getattr(tx, op)()
                tx, wrote = session.begin(), False
        tx.abort()
    assert observed["ndb"] == observed["remote"] == observed["memory"]


# ---------------------------------------------------------------------------
# Lock manager invariants
# ---------------------------------------------------------------------------

_lock_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),          # owner
              st.integers(min_value=0, max_value=5),          # key
              st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
              st.booleans()),                                 # release after
    min_size=1, max_size=30)


@FAST
@pytest.mark.lock_witness_exempt
@given(_lock_ops)
def test_lock_manager_compatibility_invariant(ops):
    """After any sequence of non-blocking acquires/releases, no key has
    an exclusive holder coexisting with another holder."""
    from repro.errors import DeadlockError, LockTimeoutError

    mgr = LockManager(timeout=0.02)
    owners = [object() for _ in range(5)]
    keys = set()
    for owner_idx, key, mode, release in ops:
        owner = owners[owner_idx]
        keys.add(key)
        try:
            mgr.acquire(owner, key, mode, timeout=0.02)
        except (LockTimeoutError, DeadlockError):
            pass
        if release:
            mgr.release_all(owner)
        for k in keys:
            holders = mgr.holders(k)
            exclusive = [o for o, m in holders.items()
                         if m is LockMode.EXCLUSIVE]
            if exclusive:
                assert len(holders) == 1
    for owner in owners:
        mgr.release_all(owner)
    assert mgr.lock_table_size() == 0


# ---------------------------------------------------------------------------
# Partition placement
# ---------------------------------------------------------------------------

@FAST
@given(st.lists(st.tuples(st.integers(), st.text(max_size=20)), min_size=1,
                max_size=50),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=3))
def test_partition_map_properties(keys, groups, replication):
    pmap = PartitionMap(num_partitions=groups * replication * 2,
                        num_node_groups=groups, replication=replication)
    for key in keys:
        pid = pmap.partition_of(key)
        assert 0 <= pid < pmap.num_partitions
        assert pid == pmap.partition_of(key)  # deterministic
        nodes = pmap.replica_nodes(pid)
        assert len(set(nodes)) == replication
        group = pmap.node_group_of(pid)
        assert all(n // replication == group for n in nodes)


@FAST
@given(st.lists(st.one_of(st.integers(), st.text(max_size=30)), max_size=5))
def test_stable_hash_deterministic(values):
    assert stable_hash(values) == stable_hash(list(values))
    assert stable_hash(values) >= 0


# ---------------------------------------------------------------------------
# Hint cache
# ---------------------------------------------------------------------------

@FAST
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.sampled_from(["a", "b", "c", "d"]),
                          st.integers(min_value=1, max_value=10_000)),
                min_size=1, max_size=100),
       st.integers(min_value=1, max_value=10))
def test_hint_cache_bounded_and_consistent(puts, capacity):
    cache = InodeHintCache(capacity=capacity)
    latest: dict[tuple[int, str], int] = {}
    for parent, name, inode in puts:
        cache.put(parent, name, inode, parent, False)
        latest[(parent, name)] = inode
    assert len(cache) <= capacity
    # whatever is still cached must be the latest value written
    for (parent, name), inode in latest.items():
        hint = cache.get(parent, name)
        if hint is not None:
            assert hint.inode_id == inode


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

_component = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="/\x00"),
    min_size=1, max_size=12).filter(lambda s: s not in (".", ".."))


@FAST
@given(st.lists(_component, max_size=8))
def test_path_split_join_roundtrip(components):
    path = join_path(components)
    assert split_path(path) == components
    assert normalize(path) == path


@FAST
@given(st.lists(_component, min_size=1, max_size=6))
def test_normalize_collapses_extra_slashes(components):
    messy = "//" + "///".join(components) + "/"
    assert normalize(messy) == join_path(components)


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

@FAST
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200),
       st.floats(min_value=0, max_value=100))
def test_percentile_bounded_and_monotone(values, p):
    ordered = sorted(values)
    result = percentile(ordered, p)
    assert ordered[0] <= result <= ordered[-1]
    if p <= 99:
        assert percentile(ordered, p) <= percentile(ordered, min(p + 1, 100))


@FAST
@given(st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False),
                min_size=1, max_size=500))
def test_histogram_exact_aggregates(values):
    hist = HistogramMetric("h", ())
    for value in values:
        hist.observe(value)
    assert hist.count == len(values)
    assert hist.max == max(values)
    assert hist.mean == pytest.approx(sum(values) / len(values))
    p50 = hist.percentile(50)
    assert min(values) <= p50 <= max(values)


# ---------------------------------------------------------------------------
# Workload spec
# ---------------------------------------------------------------------------

@FAST
@given(st.floats(min_value=0.03, max_value=0.5))
def test_write_intensive_mix_normalized(fraction):
    from repro.workload.spec import write_intensive_workload

    spec = write_intensive_workload(fraction)
    assert sum(spec.mix.values()) == pytest.approx(1.0)
    assert spec.file_write_fraction == pytest.approx(fraction, abs=0.01)
