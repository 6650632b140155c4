"""The frame loop: one thread answers every connection's frames, and a
request that must wait hands the loop to a standby first.

The loop is tested on its own, behind a toy handler table (``hello``, and
a ``ping`` with a parked delay) that imports nothing from the engine: a
second table needs no loop code. The tests that need a row lock or a
commit run it behind ``NDBServer``'s table.

Each hand-off test names the ``park()`` call it relies on: delete that
call and the test fails, because the loop then waits inside the request
and every other connection waits behind it.
"""

import ast
import itertools
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.rpc.loop
from repro import faults
from repro.dal import RemoteDriver
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics.flightrecorder import FlightRecorder
from repro.metrics.registry import MetricsRegistry
from repro.ndb import LockMode, NDBConfig, TableSchema
from repro.rpc import ClientConn, FrameConn, NDBServer, dial, protocol
from repro.rpc.loop import FrameLoop
from repro.util import park

KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))

CONFIG = NDBConfig(num_datanodes=4, replication=2, lock_timeout=2.0)


@pytest.fixture
def server():
    with NDBServer(config=CONFIG) as srv:
        yield srv


@pytest.fixture
def driver(server):
    drv = RemoteDriver(server.host, server.port, timeout=10.0)
    drv.create_table(KV)
    drv.session().run(
        lambda tx: [tx.insert("kv", {"k": i, "v": i * 10}) for i in range(4)])
    yield drv
    drv.close()


class _Toy:
    """A second server for the loop: two handlers, and every connection's
    peer a number, so a test can see which ones were dropped."""

    def __init__(self):
        self.host = "127.0.0.1"
        self.dropped = []
        numbers = itertools.count(1)
        self.loop = FrameLoop(
            {"hello": lambda peer, params: {"peer": peer},
             "ping": self._ping},
            on_connect=lambda conn: next(numbers),
            on_drop=self.dropped.append,
            registry=MetricsRegistry(), flight=FlightRecorder(name="toy"),
            name="toy")
        self.port = self.loop.start(self.host, 0)

    @staticmethod
    def _ping(peer, params):
        delay = params.get("delay")
        if delay:
            park.park()
            time.sleep(float(delay))
        return "pong"


@pytest.fixture
def toy():
    server = _Toy()
    yield server
    server.loop.stop_accepting()
    server.loop.halt()


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.002)
    return predicate()


def _ping_seconds(server):
    """How long a fresh connection's ``ping`` takes to be answered."""
    conn = ClientConn(dial(server.host, server.port, timeout=10.0))
    try:
        started = time.monotonic()
        assert conn.call("ping") == "pong"
        return time.monotonic() - started
    finally:
        conn.close()


def test_park_runs_the_hook_once_and_is_a_no_op_elsewhere():
    park.park()  # no hook installed: nothing happens
    fired = []
    park.HOOK.fn = lambda: fired.append(threading.get_ident())
    try:
        other = threading.Thread(target=park.park)  # another thread's hook
        other.start()
        other.join()
        park.park()
        park.park()
    finally:
        park.HOOK.fn = None
    assert fired == [threading.get_ident()]


def test_with_no_waits_one_thread_serves_every_connection(server, driver):
    other = RemoteDriver(server.host, server.port, timeout=10.0)
    try:
        for i in range(20):
            for drv in (driver, other):
                row = drv.session().run(
                    lambda tx, k=i % 4: tx.read("kv", (k,),
                                                lock=LockMode.SHARED))
                assert row["v"] == (i % 4) * 10
    finally:
        other.close()
    assert server.registry.get_counter("rpc_connections_total") >= 2
    with server.loop._mutex:
        assert len(server.loop._threads) == 1


def test_a_lock_holders_commit_is_served_while_another_connection_waits(
        server, driver):
    """Relies on the ``park()`` in ``LockManager.acquire``: the waiter's
    request parks, so the holder's commit reaches the engine at once and
    the waiter gets the committed row, well inside the lock timeout."""
    locks = server.cluster._locks
    holder = driver.session().begin()
    holder.read("kv", (3,), lock=LockMode.EXCLUSIVE)
    holder.update("kv", (3,), {"v": 31})
    other = RemoteDriver(server.host, server.port, timeout=10.0)
    got = {}

    def waiter():
        started = time.monotonic()
        got["row"] = other.session().run(
            lambda tx: tx.read("kv", (3,), lock=LockMode.EXCLUSIVE))
        got["waited"] = time.monotonic() - started

    thread = threading.Thread(target=waiter)
    thread.start()
    try:
        assert _wait_until(lambda: locks.waits >= 1)  # queued on the row
        holder.commit()
    finally:
        thread.join(timeout=10)
        other.close()
    assert got["row"] == {"k": 3, "v": 31}
    assert got["waited"] < CONFIG.lock_timeout / 2


def test_an_injected_delay_does_not_hold_up_another_connection(toy):
    """Relies on the ``park()`` before the fault injector's ``delay``."""
    injector = faults.install(FaultInjector(FaultPlan(specs=[FaultSpec(
        site="rpc.server.request", action="delay", delay=0.6,
        match={"method": "hello"})])))
    slow = ClientConn(dial(toy.host, toy.port, timeout=10.0))
    answered = []

    def slow_call():
        started = time.monotonic()
        slow.call("hello")
        answered.append(time.monotonic() - started)

    thread = threading.Thread(target=slow_call)
    thread.start()
    try:
        assert _wait_until(lambda: injector.fired)  # the delay has begun
        assert _ping_seconds(toy) < 0.3
    finally:
        thread.join(timeout=10)
        faults.uninstall()
        slow.close()
    assert answered and answered[0] >= 0.6


def test_frames_of_a_parked_connection_are_answered_in_order(toy):
    """Relies on the ``park()`` before ``ping``'s test delay. The first
    frame parks; one frame already buffered behind it and one that
    arrives while it waits are answered after it, in order, while another
    connection is served in the meantime."""
    sock = dial(toy.host, toy.port, timeout=10.0)
    conn = FrameConn(sock)
    try:
        sock.sendall(
            protocol.encode_frame(protocol.request(1, "ping", {"delay": 0.5}))
            + protocol.encode_frame(protocol.request(2, "ping"))
            + protocol.encode_frame(protocol.request(None, "ping")))
        assert _ping_seconds(toy) < 0.25  # the loop went on without it
        sock.sendall(protocol.encode_frame(protocol.request(3, "ping")))
        replies = [conn.recv() for _ in range(3)]
    finally:
        conn.close()
    assert [(r["id"], r["result"]) for r in replies] == [
        (1, "pong"), (2, "pong"), (3, "pong")]


def test_contending_connections_lose_no_update_and_every_thread_returns(
        server, driver):
    """Six connections increment one row under its X lock, so most of
    their reads park, and a short switch interval makes the hand-offs
    race. No increment may be lost, and once the load is gone every loop
    thread but the leader must be back on standby."""
    workers, rounds = 6, 15
    drivers = [RemoteDriver(server.host, server.port, timeout=20.0)
               for _ in range(workers)]
    errors = []

    def incr(tx):
        row = tx.read("kv", (0,), lock=LockMode.EXCLUSIVE)
        tx.update("kv", (0,), {"v": row["v"] + 1})

    def work(drv):
        session = drv.session()
        try:
            for _ in range(rounds):
                session.run(incr, retries=20)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(drv,)) for drv in drivers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for drv in drivers:
            drv.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert driver.session().run(
        lambda tx: tx.read("kv", (0,)))["v"] == workers * rounds

    def all_standing_by():
        with server.loop._mutex:
            return len(server.loop._threads) > 1 and \
                server.loop._idle == len(server.loop._threads) - 1

    assert _wait_until(all_standing_by)  # requests parked, threads came back


def test_each_connection_is_dropped_once_whoever_ends_it(toy):
    """A peer that hangs up, a peer that sends garbage (while the others
    are still served) and a connection still open at the halt: each
    one's peer goes to ``on_drop`` exactly once."""
    hangs_up, garbles, stays = (
        ClientConn(dial(toy.host, toy.port, timeout=5.0)) for _ in range(3))
    numbers = [conn.call("hello")["peer"] for conn in (hangs_up, garbles,
                                                        stays)]
    hangs_up.close()
    assert _wait_until(lambda: toy.dropped == numbers[:1])
    garbles._conn._sock.sendall(b"\x00\x00\x00\x02{x")
    assert _wait_until(lambda: toy.dropped == numbers[:2])
    assert stays.call("ping") == "pong"
    gauge = toy.loop.registry.gauge("rpc_open_connections")
    assert gauge.value == 1
    toy.loop.halt()
    assert toy.dropped == numbers and gauge.value == 0
    garbles.close()
    stays.close()


def test_a_requests_latency_is_its_flight_records_duration(toy):
    """One clock pair per request: the ``rpc_request_seconds`` sample is
    the flight record's own duration, not a second timing."""
    conn = ClientConn(dial(toy.host, toy.port, timeout=5.0))
    try:
        assert conn.call("ping") == "pong"
    finally:
        conn.close()
    record, = [r for r in toy.loop.flight.ops() if r.op == "rpc.ping"]
    hist = toy.loop.registry.get_histogram("rpc_request_seconds",
                                           method="ping")
    assert hist.samples()[-1][1] == record.duration


def test_the_loop_knows_nothing_of_the_engine():
    """The loop serves whatever table it is given: it imports nothing
    from ``repro.ndb`` and names no ``tx.*`` request."""
    source = Path(repro.rpc.loop.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not any(name.startswith("repro.ndb") for name in imported)
    assert '"tx.' not in source
