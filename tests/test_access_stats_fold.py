"""The event list is the only record of a round trip.

A session keeps its latest run's events (every attempt of it), so the
sessions a namenode holds for its whole life do not grow; and the
namenode's ``db_*`` counters and ``db_op_round_trips{op}`` histogram are
folded from an op's events, so they equal the totals of the events
:meth:`NameNode.recording` captures — field by field, aborted attempts
included — on every driver.
"""

from collections import Counter

import pytest

from repro.errors import LockTimeoutError
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.ndb import AccessKind, LockMode, NDBConfig
from repro.util.clock import ManualClock

NDB = NDBConfig(num_datanodes=4, replication=2, lock_timeout=0.2)

#: db_*_total counter -> the total it folds, of (events, rows_locked)
FIELDS = {
    "db_round_trips_total": lambda events, locked: len(events),
    "db_rows_read_total": lambda events, locked: sum(
        e.rows for e in events if not e.write),
    "db_rows_written_total": lambda events, locked: sum(
        e.rows for e in events if e.write),
    "db_rows_locked_total": lambda events, locked: locked,
    "db_remote_partition_hops_total": lambda events, locked: sum(
        node != e.coordinator for e in events for node in e.nodes),
}


@pytest.fixture(params=["ndb", "memory", "process"])
def deploy(request):
    """``(fs, engine)``: a HopsFS cluster and the engine name."""
    config = HopsFSConfig(clock=ManualClock())
    if request.param == "ndb":
        yield HopsFSCluster(num_namenodes=2, num_datanodes=3, config=config,
                            ndb_config=NDB), "ndb"
    elif request.param == "memory":
        from repro.dal import MemoryDriver

        yield HopsFSCluster(num_namenodes=2, num_datanodes=3, config=config,
                            driver=MemoryDriver()), "memory"
    else:
        from repro.dal import RemoteDriver
        from repro.rpc import NDBServer

        with NDBServer(config=NDB) as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            try:
                yield HopsFSCluster(num_namenodes=2, num_datanodes=3,
                                    driver=driver, config=config), "process"
            finally:
                driver.close()


def _held_events(nn) -> int:
    """Events held by the sessions a namenode keeps for its life."""
    sessions = (nn.leader_election._session, nn.id_alloc._session,
                nn.block_alloc._session, nn.gen_stamp_alloc._session)
    return sum(len(session.stats.events) for session in sessions)


def test_long_lived_sessions_hold_one_runs_events(deploy):
    fs, _engine = deploy
    for _ in range(10):
        fs.tick_heartbeats()
    after_ten = [_held_events(nn) for nn in fs.namenodes]
    for _ in range(1000):
        fs.tick_heartbeats()
    after_thousand = [_held_events(nn) for nn in fs.namenodes]
    assert all(after_ten)
    assert after_thousand <= after_ten


def _totals(nn) -> dict:
    """The namenode's db_* counters and db_op_round_trips by op."""
    metrics = nn.metrics
    totals = {name: metrics.counter(name).value for name in FIELDS}
    for kind in AccessKind:
        totals[kind] = metrics.counter("db_access_total",
                                       kind=kind.value).value
    for hist in metrics.histograms():
        if hist.name == "db_op_round_trips":
            totals[dict(hist.labels)["op"]] = (hist.count, hist.total)
    return totals


def _conflicted(fs, engine, nn):
    """An op whose first attempt reads a row, then aborts on a lock
    conflict; the retry succeeds. The memory driver takes no row locks,
    so there the first attempt raises the conflict itself."""
    blocker = None
    if engine != "memory":
        blocker = fs.driver.session().begin()
        blocker.read("sequences", ("genstamps",), lock=LockMode.EXCLUSIVE)
    attempts = []

    def fn(tx):
        attempts.append(tx)
        if len(attempts) == 2 and blocker is not None:
            blocker.abort()  # the conflict is over
        tx.read("sequences", ("inodes",))
        if engine == "memory" and len(attempts) == 1:
            raise LockTimeoutError("row held by another transaction")
        return tx.read("sequences", ("genstamps",), lock=LockMode.EXCLUSIVE)

    assert nn._fs_op("conflicted", fn) is not None
    return attempts


def test_the_fold_equals_the_events_field_by_field(deploy):
    fs, engine = deploy
    nn = fs.namenodes[0]
    client = fs.client("fold")
    client.write_file("/d/e/f", b"x" * 10, replication=2)
    nn.mkdirs("/d/e/g")
    ops = {  # by the op name the namenode counts them under
        "mkdirs": lambda: nn.mkdirs("/d/e/h"),
        "create": lambda: nn.create("/d/e/new", client="c"),
        "stat": lambda: nn.get_file_info("/d/e/f"),
        "read": lambda: nn.get_block_locations("/d/e/f"),
        "ls": lambda: nn.list_status("/d/e"),
        "chmod": lambda: nn.set_permission("/d/e/f", 0o600),
        "rename": lambda: nn.rename("/d/e/new", "/d/e/moved"),
        "delete": lambda: nn.delete("/d/e/moved"),
        "conflicted": lambda: _conflicted(fs, engine, nn),
    }
    captured, results = {}, {}
    before = _totals(nn)
    for name, op in ops.items():
        with nn.recording() as stats:
            results[name] = op()
        captured[name] = stats
    after = _totals(nn)

    attempts = results["conflicted"]
    assert len(attempts) >= 2
    # each aborted attempt's read counts: one event, then two at the end
    assert captured["conflicted"].round_trips == len(attempts) + 1

    everything = [e for stats in captured.values() for e in stats.events]
    locked = sum(stats.rows_locked for stats in captured.values())
    assert locked > 0
    if engine != "memory":  # one node: every access is local
        assert FIELDS["db_remote_partition_hops_total"](everything, 0) > 0
    for name, total in FIELDS.items():
        assert after[name] - before[name] == total(everything, locked), name
    kinds = Counter(e.kind for e in everything)
    for kind in AccessKind:
        assert after[kind] - before[kind] == kinds[kind], kind
    for name, stats in captured.items():
        count, total = after[name]
        count0, total0 = before.get(name, (0, 0.0))
        # one observation per op (each ran as one namenode attempt),
        # its value the op's round trips
        assert (count - count0, total - total0) == (
            1, stats.round_trips), name
