"""Discrete-event model of the HDFS baseline (Figures 6, 8–10; Table 2).

The active namenode is modelled as a pool of RPC handler threads in front
of **one serialization station** — the global namesystem lock together
with everything executed under it. Read operations cost the fitted
``hdfs_read_cost``, namespace mutations ``hdfs_write_cost`` (fitted to
Table 2's four measured throughputs, see :mod:`repro.perfmodel.costs`);
mutations additionally wait for the quorum-journal group commit *after*
leaving the station, which adds client latency without consuming
namenode capacity — exactly the lock-release-before-sync behaviour of
§2.1.

Unlike the HopsFS model, no down-scaling is needed: a single namenode at
~80 K ops/s is cheap to simulate at full size.

Failover (Figure 10): killing the active namenode makes every operation
fail until the standby finishes promotion 8–10 s later; clients retry and
service resumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.perfmodel.costs import CostModel, _jitter
from repro.perfmodel.results import RunResult
from repro.sim import Environment, Resource
from repro.workload.spec import WRITE_OPS, WorkloadSpec


@dataclass
class HDFSModelConfig:
    clients: int = 1000
    workload: Optional[WorkloadSpec] = None
    cost: CostModel = field(default_factory=CostModel)
    seed: int = 1
    duration: float = 1.0
    warmup: float = 0.2
    #: times at which the active namenode is killed (Figure 10)
    kill_times: tuple[float, ...] = ()


class HDFSPerfModel:
    def __init__(self, config: HDFSModelConfig) -> None:
        self.config = config
        self.cost = config.cost
        self.workload = config.workload
        if self.workload is None:
            from repro.workload.spec import SPOTIFY_WORKLOAD

            self.workload = SPOTIFY_WORKLOAD
        self.env = Environment()
        self.handlers = Resource(self.env, self.cost.hdfs_handlers,
                                 name="hdfs-handlers")
        #: the global-lock station: one server, fitted service times
        self.namesystem = Resource(self.env, 1, name="hdfs-namesystem")
        self.result = RunResult(
            system="hdfs", duration=config.duration, scale=1.0,
            clients=config.clients)
        self._rng = random.Random(config.seed)
        self._op_names = list(self.workload.mix.keys())
        self._op_weights = [self.workload.mix[op] for op in self._op_names]
        self.available = True

    def _client_proc(self, client_id: int):
        rng = random.Random((self.config.seed << 16) ^ client_id)
        env = self.env
        cost = self.cost
        while True:
            op = rng.choices(self._op_names, weights=self._op_weights)[0]
            start = env.now
            while not self.available:
                # failover window: the RPC fails; the client backs off
                yield env.timeout(0.1)
            yield env.timeout(cost.client_nn_rtt / 2)
            yield self.handlers.acquire()
            try:
                service = (cost.hdfs_write_cost if op in WRITE_OPS
                           else cost.hdfs_read_cost)
                yield self.namesystem.serve(_jitter(service, rng))
                if op in WRITE_OPS:
                    # quorum-journal group commit, after lock release (§2.1)
                    yield env.timeout(
                        _jitter(cost.hdfs_journal_sync_mean, rng))
            finally:
                self.handlers.release()
            yield env.timeout(cost.client_nn_rtt / 2)
            if op == "create":
                yield env.timeout(
                    _jitter(cost.create_pipeline_mean, rng))
            self._record(op, start)

    def _record(self, op: str, start: float) -> None:
        now = self.env.now
        if now >= self.config.warmup:
            self.result.record(op, now, now - start)

    def _failover_proc(self):
        for kill_at in self.config.kill_times:
            delay = kill_at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self.available = False
            downtime = self._rng.uniform(
                self.cost.hdfs_failover_downtime_min,
                self.cost.hdfs_failover_downtime_max)
            yield self.env.timeout(downtime)
            self.available = True  # standby promoted

    def run(self) -> RunResult:
        for client_id in range(self.config.clients):
            self.env.process(self._client_proc(client_id))
        if self.config.kill_times:
            self.env.process(self._failover_proc())
        self.env.run(until=self.config.warmup + self.config.duration)
        self.result.duration = self.config.duration
        return self.result


def simulate_hdfs(clients: int, workload: Optional[WorkloadSpec] = None,
                  duration: float = 1.0, seed: int = 1,
                  cost: Optional[CostModel] = None, **kwargs) -> RunResult:
    config = HDFSModelConfig(clients=clients, workload=workload,
                             duration=duration, seed=seed,
                             cost=cost or CostModel(), **kwargs)
    return HDFSPerfModel(config).run()
