"""Fault plans: seeded, declarative schedules of fault injections.

A :class:`FaultPlan` is data, not code: a seed plus a list of
:class:`FaultSpec` entries, each naming an injection *site* (see
docs/robustness.md for the catalog), a trigger predicate (glob over the
site name, equality match over the site's context, skip count,
probability) and an *action*. Being plain data, a plan serializes to a
JSON-able dict, which is how chaos tests ship plans to ``repro serve``
worker processes over the existing RPC protocol and how ``--fault-plan``
loads one from a file.

Determinism: every probabilistic decision is drawn from a per-spec RNG
seeded from ``(plan.seed, spec index)`` (see
:class:`repro.faults.injector.FaultInjector`), and each spec keeps its
own match counter — so whether a given spec fires at its Nth match never
depends on how *other* sites interleave. Re-running the same workload
with the same plan reproduces the same firings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Mapping, Optional

#: every action a spec may take when it fires:
#: ``error``      raise the named :mod:`repro.errors` class;
#: ``delay``      sleep ``delay`` seconds (stalls, slow devices);
#: ``veto``       return True to the caller, which interprets it
#:                site-specifically (cache miss, failed dial attempt,
#:                duplicated response, ...);
#: ``call``       invoke a callback registered on the injector
#:                (datanode kills, partition churn, leader loss);
#: ``drop_conn``  raise :class:`~repro.faults.injector.DropConnection`,
#:                which the RPC server's loop turns into a
#:                silent socket close (crash simulation).
ACTIONS = ("error", "delay", "veto", "call", "drop_conn")


@dataclass
class FaultSpec:
    """One scheduled fault: where, when, and what."""

    #: site name or ``fnmatch`` glob (``"rpc.server.*"``)
    site: str
    action: str = "error"
    #: error class name from :mod:`repro.errors` (action ``error``)
    error: str = "InjectedFaultError"
    message: str = ""
    #: sleep duration in seconds (action ``delay``)
    delay: float = 0.0
    #: chance of firing at each eligible match, drawn per-spec
    probability: float = 1.0
    #: total fires allowed (None = unlimited)
    max_fires: Optional[int] = 1
    #: eligible matches to let pass before the first fire
    skip: int = 0
    #: equality predicate over the site's context kwargs
    match: dict[str, Any] = field(default_factory=dict)
    #: injector callback name (action ``call``)
    callback: Optional[str] = None
    #: kwargs for the callback
    args: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r} "
                             f"(expected one of {ACTIONS})")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.skip < 0:
            raise ValueError("skip must be >= 0")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be >= 1 or None")
        if self.action == "call" and not self.callback:
            raise ValueError("action 'call' requires a callback name")

    def matches(self, site: str, ctx: Mapping[str, Any]) -> bool:
        if not fnmatchcase(site, self.site):
            return False
        return all(ctx.get(key) == value
                   for key, value in self.match.items())

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return cls(**dict(data))


@dataclass
class FaultPlan:
    """A seeded schedule of fault specs (the unit of installation)."""

    seed: int = 0
    name: str = ""
    specs: list[FaultSpec] = field(default_factory=list)

    def add(self, site: str, **kwargs: Any) -> FaultSpec:
        """Append a spec (builder convenience); returns it."""
        spec = FaultSpec(site, **kwargs)
        self.specs.append(spec)
        return spec

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "name": self.name,
                "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(seed=int(data.get("seed", 0)),
                   name=data.get("name", ""),
                   specs=[FaultSpec.from_dict(s)
                          for s in data.get("specs", [])])


@dataclass
class FiredFault:
    """The record of one fault actually firing (replay evidence)."""

    seq: int
    site: str
    spec_index: int
    action: str
    ctx: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def key(self) -> tuple[int, str, int, str]:
        """Identity used by replay-determinism assertions (drops ctx
        values that may carry non-deterministic ids)."""
        return (self.seq, self.site, self.spec_index, self.action)
