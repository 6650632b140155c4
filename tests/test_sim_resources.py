"""Unit tests for the DES resource (Resource)."""

import pytest

from repro.sim import Environment, Resource, SimError


def test_resource_serializes_beyond_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    done = []

    def worker(tag):
        yield res.acquire()
        try:
            yield env.timeout(10.0)
            done.append((tag, env.now))
        finally:
            res.release()

    for tag in range(4):
        env.process(worker(tag))
    env.run()
    # Two run at a time: first pair finishes at 10, second at 20.
    assert [t for _tag, t in done] == [10.0, 10.0, 20.0, 20.0]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(tag):
        yield res.acquire()
        try:
            order.append(tag)
            yield env.timeout(1.0)
        finally:
            res.release()

    for tag in range(5):
        env.process(worker(tag))
    env.run()
    assert order == list(range(5))


def test_resource_serve_is_one_event_per_visit():
    """Two servers, five visits: the first two start at once, the rest
    wait in FIFO order, and each is handed the server its predecessor
    releases, ending its own service time after that release."""
    env = Environment()
    res = Resource(env, capacity=2)
    ends = {}
    for tag, service in enumerate((3.0, 1.0, 2.0, 4.0, 5.0)):
        visit = res.serve(service)
        visit.callbacks.append(lambda _ev, tag=tag: ends.setdefault(tag, env.now))
    env.run()
    # 1 ends at 1 and hands over to 2 (ends 3); 0 ends at 3 and hands
    # over to 3 (ends 7); 2 ends at 3 and hands over to 4 (ends 8)
    assert ends == {0: 3.0, 1: 1.0, 2: 3.0, 3: 7.0, 4: 8.0}
    assert list(ends) == [1, 0, 2, 3, 4]
    with pytest.raises(SimError):
        res.release()  # every visit released its server


def test_serve_waits_for_an_acquired_server():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        yield res.acquire()
        yield env.timeout(4.0)
        res.release()

    def visitor():
        yield env.timeout(1.0)
        yield res.serve(2.0)
        return env.now

    env.process(holder())
    v = env.process(visitor())
    env.run()
    assert v.value == 6.0
    with pytest.raises(SimError):
        res.serve(-1.0)
    with pytest.raises(SimError):
        res.release()  # the rejected visit took no server


def test_release_idle_resource_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimError):
        res.release()
