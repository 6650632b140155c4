"""A k-server FCFS station for the DES kernel.

:class:`Resource` models thread pools (namenode RPC handlers, NDB
transaction-coordinator threads), the HDFS namesystem lock (one server)
and any other finite concurrency.
"""

from __future__ import annotations

from collections import deque

from repro.sim.core import Environment, Event, SimError


class Resource:
    """A k-server resource with a FIFO wait queue.

    A station visit is one event::

        yield resource.serve(service_time)

    fires when the visit ends, ``service_time`` after a server was
    granted; the release is the event's first callback. A holder that
    waits on other events while it keeps the server uses
    :meth:`acquire` and :meth:`release` instead::

        yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: waiting requests: (event, delay from the grant to the event)
        self._queue: deque[tuple[Event, float]] = deque()

    def acquire(self) -> Event:
        """An event that fires when a server is granted to the caller."""
        return self._request(Event(self.env), 0.0)

    def serve(self, service_time: float) -> Event:
        """An event that fires when a visit of ``service_time`` ends."""
        ev = Event(self.env)
        ev.callbacks.append(self._end_visit)
        return self._request(ev, service_time)

    def _request(self, ev: Event, delay: float) -> Event:
        if self._in_use < self.capacity and not self._queue:
            ev.succeed(delay=delay)  # raises on a negative delay
            self._in_use += 1
        else:
            self._queue.append((ev, delay))
        return ev

    def _end_visit(self, _ev: Event) -> None:
        self.release()

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError(f"release of idle resource {self.name!r}")
        if self._queue:
            # server handed over directly; _in_use unchanged
            nxt, delay = self._queue.popleft()
            nxt.succeed(delay=delay)
        else:
            self._in_use -= 1
