"""Discrete-event model of a HopsFS deployment (Figures 6–10).

Topology (paper §7.1): N stateless namenodes, each with a pool of RPC
handler threads, in front of an NDB cluster of M datanodes with 22
transaction/storage threads each. Closed-loop clients stick to one
namenode, like the paper's benchmark, re-picking only when it dies, and
issue operations from a workload mix.

One operation = client→namenode RTT + handler occupancy for the CPU work
and every database round trip of the operation's **measured profile**
(see :mod:`repro.perfmodel.profiles`): each trip pays the NN↔DB RTT and
consumes thread time on the shards it touches, in parallel across its
fan-out. Coordinator-local trips (distribution-aware transactions) skip
the inter-node hop.

The §7.2.1 hotspot workload routes the shared ancestor's row reads to a
dedicated station whose capacity is the row's replica count — in NDB a
partition is served by one thread per replica, which is precisely why a
hot inode caps throughput (§4.2.1).

``scale`` shrinks every thread pool and the client count proportionally
so a 1.25 M ops/s cluster can be simulated in seconds of wall time;
reported throughput is de-scaled. Linearity of the scaling is covered by
a test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.perfmodel.costs import CostModel, _jitter
from repro.perfmodel.profiles import OpProfile, spotify_profile_table
from repro.perfmodel.results import RunResult
from repro.sim import AllOf, Environment, Resource
from repro.workload.spec import WorkloadSpec


@dataclass
class HopsFSModelConfig:
    num_namenodes: int = 60
    ndb_nodes: int = 12
    clients: int = 4000
    workload: Optional[WorkloadSpec] = None
    cost: CostModel = field(default_factory=CostModel)
    scale: float = 0.02
    hotspot: bool = False
    seed: int = 1
    duration: float = 1.0
    warmup: float = 0.2
    #: optional namenode kill schedule: list of times (for Figure 10)
    kill_times: tuple[float, ...] = ()


#: operations whose transaction X-locks the parent directory row (§5.2.1)
_PARENT_LOCKING_OPS = frozenset({"create", "mkdirs", "delete", "rename"})


def _distribute(total: float, units: int, minimum: int = 1) -> list[int]:
    """Integer capacities per unit summing to ≈``total`` (min 1 each)."""
    target = max(units * minimum, round(total))
    base, remainder = divmod(target, units)
    return [base + 1 if i < remainder else base for i in range(units)]


class _NameNodeStation:
    def __init__(self, env: Environment, handlers: int, nn_id: int) -> None:
        self.nn_id = nn_id
        self.handlers = Resource(env, handlers, name=f"nn{nn_id}")
        self.alive = True


class HopsFSPerfModel:
    def __init__(self, config: HopsFSModelConfig,
                 profiles: Optional[dict[str, OpProfile]] = None) -> None:
        self.config = config
        self.cost = config.cost
        self.workload = config.workload
        if self.workload is None:
            from repro.workload.spec import SPOTIFY_WORKLOAD

            self.workload = SPOTIFY_WORKLOAD
        self.profiles = profiles or spotify_profile_table()
        self.env = Environment()
        scale = config.scale
        # Distribute scaled capacities across units so the *total* thread
        # count is accurate even when the per-unit value is fractional
        # (e.g. 64 handlers × 0.05 = 3.2 per namenode): per-unit rounding
        # would bias throughput by up to ±50 % at small scales.
        handler_split = _distribute(
            self.cost.nn_handlers * scale * config.num_namenodes,
            config.num_namenodes)
        thread_split = _distribute(
            self.cost.ndb_threads_per_node * scale * config.ndb_nodes,
            config.ndb_nodes)
        self.namenodes = [
            _NameNodeStation(self.env, handler_split[i], i)
            for i in range(config.num_namenodes)
        ]
        self.db_nodes = [
            Resource(self.env, thread_split[i], name=f"ndb{i}")
            for i in range(config.ndb_nodes)
        ]
        # parent-directory row locks: creates into one directory serialize
        # (§5.2.1); the station count scales with the cluster so the
        # contention level is scale-invariant.
        self._write_dirs = [
            Resource(self.env, 1, name=f"dirlock{i}")
            for i in range(max(1, round(
                self.cost.concurrent_write_directories * scale)))
        ]
        hot_capacity = max(1, round(self.cost.hot_row_replicas * scale)) \
            if scale >= 0.5 else 1
        # below scale 0.5 a fractional replica is meaningless; keep one
        # server and scale its speed instead (handled in _hot_service)
        self._hot_station = Resource(self.env, hot_capacity, name="hot-shard")
        self._hot_speedup = (self.cost.hot_row_replicas * scale) / hot_capacity
        self.result = RunResult(
            system="hopsfs", duration=config.duration, scale=scale,
            clients=config.clients)
        self._rng = random.Random(config.seed)
        self._num_clients = max(1, round(config.clients * scale))
        self._op_names = list(self.workload.mix.keys())
        self._op_weights = [self.workload.mix[op] for op in self._op_names]

    # -- op profiles -------------------------------------------------------------------

    def _profile_for(self, op: str, rng: random.Random) -> OpProfile:
        dir_share = self.workload.dir_fraction.get(op, 0.0)
        if dir_share and rng.random() < dir_share:
            variant = self.profiles.get(f"{op}_dir")
            if variant is not None:
                return variant
            if op == "ls":
                return self.profiles["ls"]
        if op == "ls" and (not dir_share or rng.random() >= dir_share):
            return self.profiles.get("ls_file", self.profiles["ls"])
        if op == "stat" and f"{op}_dir" not in self.profiles:
            return self.profiles["stat"]
        return self.profiles.get(op) or self.profiles["stat"]

    # -- processes ------------------------------------------------------------------------

    def _client_proc(self, client_id: int):
        rng = random.Random((self.config.seed << 16) ^ client_id)
        env = self.env
        cost = self.cost
        nn = self._pick_namenode(rng)
        while True:
            op = rng.choices(self._op_names, weights=self._op_weights)[0]
            profile = self._profile_for(op, rng)
            start = env.now
            if not nn.alive:
                # transparent failover: re-execute elsewhere (§7.6.1)
                nn = self._pick_namenode(rng)
                if nn is None:
                    return
            yield env.timeout(cost.client_nn_rtt / 2)
            yield nn.handlers.acquire()
            dir_lock = (rng.choice(self._write_dirs)
                        if op in _PARENT_LOCKING_OPS else None)
            dir_locked = False
            try:
                yield env.timeout(_jitter(cost.nn_cpu_per_op, rng))
                if dir_lock is not None:
                    # X lock on the parent directory row, held until commit
                    yield dir_lock.acquire()
                    dir_locked = True
                for trip in profile.trips:
                    yield from self._db_trip(trip, rng)
            finally:
                if dir_locked:
                    dir_lock.release()
                nn.handlers.release()
            yield env.timeout(cost.client_nn_rtt / 2)
            if profile.client_overhead:
                yield env.timeout(_jitter(profile.client_overhead, rng))
            self._record(op, start)

    def _db_trip(self, trip, rng: random.Random):
        env = self.env
        cost = self.cost
        latency = cost.nn_db_rtt
        if not trip.local:
            latency += cost.db_internode_hop
        yield env.timeout(_jitter(latency, rng))
        fanout = min(trip.fanout, len(self.db_nodes))
        plain_rows = trip.rows
        visits = []
        if self.config.hotspot and trip.hot_rows:
            plain_rows = max(0, trip.rows - trip.hot_rows)
            service = (cost.db_row_cost * trip.hot_rows) / self._hot_speedup
            visits.append(self._hot_station.serve(_jitter(service, rng)))
        if plain_rows > 0 or not visits:
            # total thread time for the trip = trip TC overhead + row work,
            # split evenly over the participating nodes (parallel fan-out)
            row_cost = (cost.db_write_row_cost if trip.write
                        else cost.db_row_cost)
            rows_per_node = max(1, plain_rows) / fanout
            service_mean = (cost.db_trip_overhead / fanout
                            + rows_per_node * row_cost)
            nodes = rng.sample(self.db_nodes, fanout) if fanout > 1 else [
                rng.choice(self.db_nodes)]
            for node in nodes:
                visits.append(node.serve(_jitter(service_mean, rng)))
        yield visits[0] if len(visits) == 1 else AllOf(env, visits)

    def _pick_namenode(self, rng: random.Random):
        alive = [nn for nn in self.namenodes if nn.alive]
        if not alive:
            return None
        return rng.choice(alive)

    def _record(self, op: str, start: float) -> None:
        now = self.env.now
        if now >= self.config.warmup:
            self.result.record(op, now, now - start)

    def _killer_proc(self):
        for idx, kill_at in enumerate(self.config.kill_times):
            delay = kill_at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            alive = [nn for nn in self.namenodes if nn.alive]
            if len(alive) > 1:
                alive[idx % len(alive)].alive = False

    # -- entry point ------------------------------------------------------------------------

    def run(self) -> RunResult:
        for client_id in range(self._num_clients):
            self.env.process(self._client_proc(client_id))
        if self.config.kill_times:
            self.env.process(self._killer_proc())
        total = self.config.warmup + self.config.duration
        self.env.run(until=total)
        self.result.duration = self.config.duration
        return self.result


def simulate_hopsfs(num_namenodes: int, ndb_nodes: int, clients: int,
                    workload: Optional[WorkloadSpec] = None,
                    hotspot: bool = False, scale: float = 0.02,
                    duration: float = 1.0, seed: int = 1,
                    profiles: Optional[dict[str, OpProfile]] = None,
                    cost: Optional[CostModel] = None,
                    **kwargs) -> RunResult:
    """Convenience wrapper used by the benchmarks."""
    config = HopsFSModelConfig(
        num_namenodes=num_namenodes, ndb_nodes=ndb_nodes, clients=clients,
        workload=workload, hotspot=hotspot, scale=scale, duration=duration,
        seed=seed, cost=cost or CostModel(), **kwargs)
    return HopsFSPerfModel(config, profiles=profiles).run()
