"""Unit tests for the ZooKeeper-like failover coordinator."""

import pytest

from repro.hdfs.coordinator import FailoverCoordinator
from repro.util.clock import ManualClock


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def coordinator(clock):
    return FailoverCoordinator(clock)


def test_first_renewer_becomes_holder(coordinator):
    assert coordinator.renew(1)
    assert coordinator.holder() == 1


def test_second_namenode_cannot_renew(coordinator):
    coordinator.renew(1)
    assert not coordinator.renew(2)
    assert coordinator.holder() == 1


def test_takeover_blocked_while_lease_fresh(coordinator, clock):
    coordinator.renew(1)
    clock.advance(2.0)
    assert not coordinator.try_takeover(2)


def test_takeover_after_lease_expiry(coordinator, clock):
    coordinator.renew(1)
    clock.advance(FailoverCoordinator.FAILOVER_TIMEOUT + 1.0)
    assert coordinator.lease_expired()
    assert coordinator.try_takeover(2)
    assert coordinator.holder() == 2
    assert coordinator.failovers == 1


def test_holder_takeover_is_idempotent(coordinator):
    coordinator.renew(1)
    assert coordinator.try_takeover(1)
    assert coordinator.failovers == 0


def test_renewal_keeps_lease_alive_indefinitely(coordinator, clock):
    coordinator.renew(1)
    for _ in range(10):
        clock.advance(3.0)
        coordinator.renew(1)
        assert not coordinator.lease_expired()


def test_quorum_loss_blocks_everything(coordinator, clock):
    coordinator.renew(1)
    coordinator.nodes[0].kill()
    coordinator.nodes[1].kill()
    assert not coordinator.has_quorum()
    assert not coordinator.renew(1)
    clock.advance(10.0)
    assert not coordinator.try_takeover(2)


def test_quorum_restored_resumes_service(coordinator, clock):
    coordinator.renew(1)
    coordinator.nodes[0].kill()
    coordinator.nodes[1].kill()
    coordinator.nodes[0].restart()
    assert coordinator.has_quorum()
    clock.advance(10.0)
    assert coordinator.try_takeover(2)


def test_one_ensemble_node_failure_tolerated(coordinator):
    coordinator.nodes[2].kill()
    assert coordinator.has_quorum()
    assert coordinator.renew(1)
