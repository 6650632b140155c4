"""ZooKeeper-like failover coordination for the HDFS baseline (§2.1).

A quorum of coordinator nodes holds an exclusive "active" lease. The
active namenode renews the lease on every tick; when renewals stop, the
lease expires after ``FAILOVER_TIMEOUT`` seconds and the standby is
promoted. Exactly one namenode can hold the lease — the split-brain
protection ZooKeeper provides. Like ZooKeeper, the ensemble only works
while a majority of its nodes is up.
"""

from __future__ import annotations

from typing import Optional

from repro.util.clock import Clock


class CoordinatorNode:
    """One member of the coordination ensemble."""

    def __init__(self, zk_id: int) -> None:
        self.zk_id = zk_id
        self.alive = True

    def kill(self) -> None:
        self.alive = False

    def restart(self) -> None:
        self.alive = True


class FailoverCoordinator:
    #: coordination nodes in the ensemble
    ENSEMBLE_SIZE = 3
    #: seconds without a renewal before the lease expires (the paper
    #: measures 8-10 s of HDFS failover downtime, §7.6)
    FAILOVER_TIMEOUT = 9.0

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.nodes = [CoordinatorNode(i) for i in range(self.ENSEMBLE_SIZE)]
        self._holder: Optional[int] = None
        self._lease_renewed = 0.0
        self.failovers = 0

    @property
    def quorum(self) -> int:
        return len(self.nodes) // 2 + 1

    def has_quorum(self) -> bool:
        return sum(1 for n in self.nodes if n.alive) >= self.quorum

    def renew(self, nn_id: int) -> bool:
        """Active namenode lease renewal; False if the lease is not ours."""
        if not self.has_quorum():
            return False
        if self._holder is None:
            self._holder = nn_id
        if self._holder != nn_id:
            return False
        self._lease_renewed = self.clock.now()
        return True

    def holder(self) -> Optional[int]:
        return self._holder

    def lease_expired(self) -> bool:
        if self._holder is None:
            return True
        return self.clock.now() - self._lease_renewed > self.FAILOVER_TIMEOUT

    def try_takeover(self, nn_id: int) -> bool:
        """A standby attempts to grab the lease (fencing the old active)."""
        if not self.has_quorum():
            return False
        if self._holder == nn_id:
            return True
        if not self.lease_expired():
            return False
        self._holder = nn_id
        self._lease_renewed = self.clock.now()
        self.failovers += 1
        return True
