"""Hand a serving loop away before a request blocks.

The ndb-server answers every connection's frames on one loop thread
(:mod:`repro.rpc.server`), so a request must never wait *on* that
thread: every other connection would wait behind it. Each place that can
block a request — a row-lock wait, a group-commit follower wait or
flush, a simulated round trip, a shard fan-out's futures, a contended
partition lock, a readers-writer lock, an injected delay — calls
:func:`park` first. On the loop thread that runs the hook the loop
installed for the request (the loop goes to a standby thread and the
request goes on to block on its own); on any other thread, and outside a
request, it does nothing. The hook fires at most once per request.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional


class _Hook(threading.local):
    #: what :func:`park` runs on this thread (installed by a loop around
    #: one request; ``None`` everywhere else)
    fn: Optional[Callable[[], None]] = None


HOOK = _Hook()


def park() -> None:
    """Call before a wait that may block."""
    fn = HOOK.fn
    if fn is not None:
        HOOK.fn = None
        fn()
