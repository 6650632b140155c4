"""Unit tests for the DES kernel (repro.sim.core)."""

import pytest

from repro.sim import AllOf, Environment, SimError


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5.0)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5.0, 7.5]


def test_run_until_stops_at_limit():
    env = Environment()

    def proc():
        yield env.timeout(100.0)

    env.process(proc())
    env.run(until=10.0)
    assert env.now == 10.0


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return 42

    def parent():
        result = yield env.process(child())
        return result * 2

    p = env.process(parent())
    env.run()
    assert p.value == 84


def test_event_succeed_value_delivered():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter():
        value = yield ev
        seen.append(value)

    def trigger():
        yield env.timeout(3.0)
        ev.succeed("hello")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == ["hello"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1.0)
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_simultaneous_events_run_in_insertion_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_all_of_collects_values_in_order():
    env = Environment()

    def child(delay, value):
        yield env.timeout(delay)
        return value

    def parent():
        procs = [env.process(child(d, v)) for d, v in [(3, "x"), (1, "y"), (2, "z")]]
        return (yield AllOf(env, procs))

    p = env.process(parent())
    env.run()
    assert p.value == ["x", "y", "z"]
    assert env.now == 3.0


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 17

    env.process(bad())
    with pytest.raises(SimError):
        env.run()


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimError):
        env.timeout(-1.0)


def test_waiting_on_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run()  # process the trigger
    seen = []

    def late_waiter():
        value = yield ev
        seen.append(value)

    env.process(late_waiter())
    env.run()
    assert seen == ["early"]
