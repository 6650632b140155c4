"""The ndb-server's loop: one thread answers every connection's frames,
and a request that must wait hands the loop to a standby first.

Each hand-off test names the ``park()`` call it relies on: delete that
call and the test fails, because the loop then waits inside the request
and every other connection waits behind it.
"""

import sys
import threading
import time

import pytest

from repro import faults
from repro.dal import RemoteDriver
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.ndb import LockMode, NDBConfig, TableSchema
from repro.rpc import ClientConn, FrameConn, NDBServer, dial, protocol
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
    with server._mutex:
        assert len(server._threads) == 1


def test_a_lock_holders_commit_is_served_while_another_connection_waits(
        server, driver):
    """Relies on the ``park()`` in ``LockManager._wait``: the waiter's
    request parks, so the holder's commit reaches the engine at once and
    the waiter gets the committed row, well inside the lock timeout."""
    locks = server.driver.cluster._locks
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


def test_an_injected_delay_does_not_hold_up_another_connection(server):
    """Relies on the ``park()`` before the fault injector's ``delay``."""
    injector = faults.install(FaultInjector(FaultPlan(specs=[FaultSpec(
        site="rpc.server.request", action="delay", delay=0.6,
        match={"method": "tables"})])))
    slow = ClientConn(dial(server.host, server.port, timeout=10.0))
    answered = []

    def slow_call():
        started = time.monotonic()
        slow.call("tables")
        answered.append(time.monotonic() - started)

    thread = threading.Thread(target=slow_call)
    thread.start()
    try:
        assert _wait_until(lambda: injector.fired)  # the delay has begun
        assert _ping_seconds(server) < 0.3
    finally:
        thread.join(timeout=10)
        faults.uninstall()
        slow.close()
    assert answered and answered[0] >= 0.6


def test_frames_of_a_parked_connection_are_answered_in_order(server):
    """Relies on the ``park()`` before ``ping``'s test delay. The first
    frame parks; one frame already buffered behind it and one that
    arrives while it waits are answered after it, in order, while another
    connection is served in the meantime."""
    sock = dial(server.host, server.port, timeout=10.0)
    conn = FrameConn(sock)
    try:
        sock.sendall(
            protocol.encode_frame(protocol.request(1, "ping", {"delay": 0.5}))
            + protocol.encode_frame(protocol.request(2, "ping"))
            + protocol.encode_frame(protocol.request(None, "ping")))
        assert _ping_seconds(server) < 0.25  # the loop went on without it
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
        with server._mutex:
            return len(server._threads) > 1 and \
                server._idle == len(server._threads) - 1

    assert _wait_until(all_standing_by)  # requests parked, threads came back
