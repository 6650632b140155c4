"""DES kernel: environment, events and processes.

A *process* is a generator. Each value it yields must be an
:class:`Event`; the process is suspended until the event is *triggered*
(succeeded or failed). A succeeded event resumes the generator with the
event's value via ``send``; a failed event resumes it by ``throw``-ing the
exception. The environment executes triggered events in (time, insertion
order) so simultaneous events run deterministically.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional


class SimError(Exception):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once, either with :meth:`succeed` (carrying an
    optional value) or :meth:`fail` (carrying an exception). Callbacks run
    when the environment pops the event from its heap.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimError("event not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        if self._triggered:
            raise SimError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        if self._triggered:
            raise SimError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.env._schedule(self, delay)
        return self

    # Internal: deliver to callbacks. Called by the environment.
    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        super().__init__(env)
        self._triggered = True
        self._value = value
        env._schedule(self, delay)


class AllOf(Event):
    """Succeeds when all child events have succeeded.

    The value is the list of child values in the order given. Fails fast
    with the first child failure.
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.callbacks.append(self._on_child)
            if ev._processed:  # already delivered before we attached
                self._on_child(ev)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c._value for c in self._children])


class Process(Event):
    """Wraps a generator; is itself an event that fires on completion.

    The process's value is the generator's return value. An unhandled
    exception in the generator fails the process event; if nobody is
    waiting on the process, the exception propagates out of
    :meth:`Environment.run` (errors never pass silently).
    """

    __slots__ = ("_gen", "name")

    def __init__(
        self,
        env: "Environment",
        gen: Generator[Event, Any, Any],
        name: str = "process",
    ) -> None:
        super().__init__(env)
        if not hasattr(gen, "send"):
            raise SimError("Process requires a generator")
        self._gen = gen
        self.name = name
        # Bootstrap: resume once at the current time.
        boot = Event(env)
        boot.callbacks.append(self._resume)
        boot.succeed()

    def _resume(self, ev: Event) -> None:
        try:
            if ev._exc is not None:
                target = self._gen.throw(ev._exc)
            else:
                target = self._gen.send(ev._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - must propagate via event
            self.fail(exc)
            self.env._defunct.append(self)
            return
        if not isinstance(target, Event):
            self.fail(SimError(f"process {self.name!r} yielded non-event {target!r}"))
            self.env._defunct.append(self)
            return
        if target._processed:
            # Event already delivered; resume at the current time.
            kick = Event(self.env)
            kick.callbacks.append(lambda _ev: self._resume(target))
            kick.succeed()
        else:
            target.callbacks.append(self._resume)


class Environment:
    """The simulation scheduler.

    Time is a float in arbitrary units (this library uses seconds
    throughout). Events scheduled at the same time run in insertion order.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._defunct: list[Process] = []

    @property
    def now(self) -> float:
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any], name: str = "process") -> Process:
        return Process(self, gen, name=name)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimError(f"negative delay: {delay}")
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._heap:
            raise SimError("no scheduled events")
        self._now, _seq, event = heapq.heappop(self._heap)
        event._run_callbacks()
        self._raise_defunct()

    def _raise_defunct(self) -> None:
        """Propagate failures of processes nobody waited on."""
        while self._defunct:
            proc = self._defunct.pop()
            if not proc.callbacks and proc._exc is not None:
                raise proc._exc

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or simulated time reaches ``until``."""
        if until is not None and until < self._now:
            raise SimError("cannot run backwards in time")
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            self.step()
        if until is not None:
            self._now = until
