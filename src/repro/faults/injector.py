"""The fault injector: evaluates an installed plan at named sites.

Production code is instrumented with cheap calls to :func:`fault_point`;
with no injector installed the call is one module-global load and a
``None`` check, so the sites cost nothing in normal operation (the same
contract as the tracer's sampling fast path).

Every fired fault is recorded three ways so chaos runs are replayable
and debuggable from artifacts alone:

* a :class:`~repro.faults.plan.FiredFault` entry on
  :attr:`FaultInjector.fired` (the replay-determinism evidence);
* a ``faults_fired_total{site,action}`` counter on the registry the
  injector was constructed with (none given, none counted);
* a zero-duration ``fault:<site>`` op in the bound flight recorder, so
  post-mortem dumps show fault firings interleaved with operations.

Thread safety: spec state (match counters, per-spec RNGs, fire counts)
is mutated under one lock. Deterministic *replay* additionally requires
the workload itself to visit sites in a deterministic order — the chaos
suite runs its workloads single-threaded for exactly that reason.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Optional, Union

from repro import errors as _errors
from repro.faults.plan import FaultPlan, FaultSpec, FiredFault
from repro.util.park import park


class DropConnection(Exception):
    """Injected transport kill.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it must never
    be serialized to a client. The RPC server's connection loop catches
    it and closes the socket without a response — from the client's side
    this is indistinguishable from the server process dying.
    """


def _error_class(name: str) -> type:
    """Resolve an error class name against the ReproError tree."""
    stack = [_errors.ReproError]
    while stack:
        cls = stack.pop()
        if cls.__name__ == name:
            return cls
        stack.extend(cls.__subclasses__())
    raise ValueError(f"unknown error class {name!r} for fault injection")


class _SpecState:
    """Mutable per-spec counters; guarded by the injector lock."""

    __slots__ = ("rng", "matches", "fires")

    def __init__(self, seed: int, index: int) -> None:
        # seeded from (plan seed, spec index): a spec's probabilistic
        # decisions depend only on its own match sequence, never on how
        # other sites interleave
        self.rng = random.Random(f"{seed}:{index}")
        self.matches = 0
        self.fires = 0


class FaultInjector:
    """Evaluates one :class:`FaultPlan`; install via :func:`install`."""

    def __init__(self, plan: FaultPlan, *,
                 registry: Optional[Any] = None,
                 recorder: Optional[Any] = None,
                 callbacks: Optional[Mapping[str, Callable[..., Any]]] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.plan = plan
        self.registry = registry
        self.recorder = recorder
        self._sleep = sleep
        self._callbacks: dict[str, Callable[..., Any]] = dict(callbacks or {})
        self._lock = threading.Lock()
        self._states = [_SpecState(plan.seed, i)
                        for i in range(len(plan.specs))]  # guarded_by: _lock
        self.fired: list[FiredFault] = []  # guarded_by: _lock

    def register(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a callback usable by ``action="call"`` specs."""
        self._callbacks[name] = fn

    def fired_keys(self) -> list[tuple]:
        """Replay identity of every firing (see FiredFault.key)."""
        with self._lock:
            return [f.key() for f in self.fired]

    def counts(self) -> dict[str, int]:
        """Fires per site (diagnostics / the CLI ``faults`` command)."""
        with self._lock:
            out: dict[str, int] = {}
            for f in self.fired:
                out[f.site] = out.get(f.site, 0) + 1
            return out

    # -- the hot path ------------------------------------------------------------

    def visit(self, site: str, ctx: Mapping[str, Any]) -> bool:
        """Evaluate every matching spec at ``site``; returns True when a
        ``veto`` fault fired (the caller interprets the veto)."""
        veto = False
        for index, spec in enumerate(self.plan.specs):
            if not spec.matches(site, ctx):
                continue
            with self._lock:
                state = self._states[index]
                state.matches += 1
                if state.matches <= spec.skip:
                    continue
                if (spec.max_fires is not None
                        and state.fires >= spec.max_fires):
                    continue
                if (spec.probability < 1.0
                        and state.rng.random() >= spec.probability):
                    continue
                state.fires += 1
                record = FiredFault(
                    seq=len(self.fired) + 1, site=site, spec_index=index,
                    action=spec.action,
                    ctx={k: v for k, v in ctx.items()
                         if isinstance(v, (str, int, float, bool,
                                           type(None)))})
                self.fired.append(record)
            self._note(record)
            veto |= self._perform(site, spec)
        return veto

    def _perform(self, site: str, spec: FaultSpec) -> bool:
        """Run the spec's action (outside the lock); True means veto."""
        if spec.action == "veto":
            return True
        if spec.action == "delay":
            if spec.delay > 0:
                park()
                self._sleep(spec.delay)
            return False
        if spec.action == "call":
            callback = self._callbacks.get(spec.callback or "")
            if callback is None:
                raise ValueError(
                    f"fault at {site} names unregistered callback "
                    f"{spec.callback!r}")
            callback(**spec.args)
            return False
        if spec.action == "drop_conn":
            raise DropConnection(f"injected connection drop at {site}")
        message = spec.message or f"injected fault at {site}"
        raise _error_class(spec.error)(message)

    def _note(self, record: FiredFault) -> None:
        if self.registry is not None:
            self.registry.inc("faults_fired_total", site=record.site,
                              action=record.action)
        if self.recorder is not None:
            self.recorder.note(f"fault:{record.site}")


# -- process-wide installation --------------------------------------------------

_active: Optional[FaultInjector] = None  # guarded_by: GIL


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-wide active injector."""
    global _active
    _active = injector
    return injector


def uninstall() -> Optional[FaultInjector]:
    """Deactivate fault injection; returns the previous injector."""
    global _active
    previous, _active = _active, None
    return previous


def active() -> Optional[FaultInjector]:
    return _active


@contextmanager
def installed(plan_or_injector: Union[FaultPlan, FaultInjector],
              **kwargs: Any) -> Iterator[FaultInjector]:
    """Scoped installation (the test-suite idiom)."""
    if isinstance(plan_or_injector, FaultInjector):
        injector = plan_or_injector
    else:
        injector = FaultInjector(plan_or_injector, **kwargs)
    global _active
    previous = _active
    install(injector)
    try:
        yield injector
    finally:
        _active = previous


def fault_point(site: str, **ctx: Any) -> bool:
    """The instrumentation call production code embeds at each site.

    Returns True when a ``veto`` fault fired; ``error``/``drop_conn``
    actions raise out of it. With no injector installed this is a
    single global load — effectively free.
    """
    injector = _active
    if injector is None:
        return False
    return injector.visit(site, ctx)
