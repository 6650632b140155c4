"""Tests for the HDFS HA cluster: standby, failover, end-to-end flows."""

import pytest

from repro.errors import NameNodeUnavailableError, RetriableError
from repro.hdfs import HDFSCluster
from repro.hdfs.coordinator import FailoverCoordinator
from repro.util.clock import ManualClock


@pytest.fixture
def hdfs():
    return HDFSCluster(num_datanodes=3, clock=ManualClock())


class TestEndToEnd:
    def test_write_read_roundtrip(self, hdfs):
        client = hdfs.client("c")
        client.mkdirs("/user/c")
        client.write_file("/user/c/f", b"hello")
        assert client.read_file("/user/c/f") == b"hello"
        assert client.stat("/user/c/f").size == 5

    def test_namespace_ops(self, hdfs):
        client = hdfs.client("c")
        client.mkdirs("/a/b")
        client.create("/a/b/f")
        assert client.list_status("/a/b").names() == ["f"]
        client.rename("/a/b/f", "/a/b/g")
        client.set_permission("/a/b/g", 0o600)
        assert client.stat("/a/b/g").perm == 0o600
        client.delete("/a", recursive=True)
        assert not client.exists("/a")

    def test_append(self, hdfs):
        client = hdfs.client("c")
        client.write_file("/f", b"one")
        client.append("/f", b"two")
        assert client.read_file("/f") == b"onetwo"


class TestStandby:
    def test_standby_tracks_namespace(self, hdfs):
        client = hdfs.client("c")
        client.mkdirs("/d")
        client.write_file("/d/f", b"xy")
        hdfs.tick()
        assert hdfs.standby.ns.file_count() == 1
        assert hdfs.standby.ns.get_file_info("/d/f") is not None

    def test_standby_rejects_client_ops(self, hdfs):
        from repro.errors import StandbyError

        with pytest.raises(StandbyError):
            hdfs.standby.mkdirs("/x")

    def test_checkpoint_truncates_journal(self, hdfs):
        client = hdfs.client("c")
        for i in range(10):
            client.mkdirs(f"/d{i}")
        hdfs.checkpoint()
        assert hdfs.journal.read_from(1) == []
        assert hdfs.standby.checkpoints_taken == 1


class TestFailover:
    def test_downtime_until_lease_expires(self, hdfs):
        """No metadata operation succeeds during the failover window —
        the 8-10 s downtime of Figure 10 at functional level."""
        client = hdfs.client("c")
        client.mkdirs("/d")
        hdfs.tick()
        hdfs.kill_active_namenode()
        # lease has not expired: the standby must refuse the takeover
        assert hdfs.tick_failover() is False
        assert hdfs.active_namenode() is None

    def test_standby_promoted_after_timeout(self, hdfs):
        clock = hdfs.config_clock
        client = hdfs.client("c")
        client.mkdirs("/d")
        hdfs.tick()
        old_active = hdfs.active_namenode()
        hdfs.kill_active_namenode()
        clock.advance(FailoverCoordinator.FAILOVER_TIMEOUT + 1.0)
        assert hdfs.tick_failover() is True
        new_active = hdfs.active_namenode()
        assert new_active.nn_id != old_active.nn_id
        assert client.exists("/d")

    def test_operations_resume_after_failover(self, hdfs):
        clock = hdfs.config_clock
        client = hdfs.client("c")
        client.write_file("/f", b"pre")
        hdfs.tick()
        hdfs.kill_active_namenode()
        clock.advance(FailoverCoordinator.FAILOVER_TIMEOUT + 1.0)
        hdfs.tick_failover()
        client.write_file("/g", b"post")
        assert client.read_file("/f") == b"pre"
        assert client.read_file("/g") == b"post"

    def test_block_locations_hot_after_failover(self, hdfs):
        clock = hdfs.config_clock
        client = hdfs.client("c")
        client.write_file("/f", b"data")
        hdfs.kill_active_namenode()
        clock.advance(FailoverCoordinator.FAILOVER_TIMEOUT + 1.0)
        hdfs.tick_failover()
        located = client.get_block_locations("/f")
        assert located.blocks[0].datanodes  # standby kept the block map hot

    def test_fresh_standby_after_failover(self, hdfs):
        clock = hdfs.config_clock
        client = hdfs.client("c")
        client.write_file("/f", b"data")
        hdfs.kill_active_namenode()
        clock.advance(FailoverCoordinator.FAILOVER_TIMEOUT + 1.0)
        hdfs.tick_failover()
        standby = hdfs.restart_standby()
        assert standby.ns.get_file_info("/f") is not None

    def test_split_brain_prevented(self, hdfs):
        """The coordinator lease admits exactly one active at a time."""
        assert hdfs.coordinator.renew(hdfs.active.nn_id)
        assert not hdfs.coordinator.try_takeover(hdfs.standby.nn_id)

    def test_unsynced_edits_lost_on_failover(self, hdfs):
        """Mutations whose journal write failed are lost after failover —
        the weaker HDFS consistency the paper contrasts against (§2.1)."""
        clock = hdfs.config_clock
        client = hdfs.client("c")
        client.mkdirs("/kept")
        # fail journal acks for the next op: kill 2/3 journal nodes
        hdfs.kill_journal_node(0)
        hdfs.kill_journal_node(1)
        with pytest.raises((NameNodeUnavailableError, RetriableError)):
            client.mkdirs("/lost")
        # the active shut down on quorum loss; repair the quorum & fail over
        hdfs.restart_journal_node(0)
        hdfs.restart_journal_node(1)
        clock.advance(FailoverCoordinator.FAILOVER_TIMEOUT + 1.0)
        hdfs.tick_failover()
        assert client.exists("/kept")
        assert not client.exists("/lost")  # applied in memory, never durable


class TestJournalFaults:
    def test_one_journal_node_failure_tolerated(self, hdfs):
        client = hdfs.client("c")
        hdfs.kill_journal_node(0)
        client.mkdirs("/ok")
        assert client.exists("/ok")

    def test_quorum_loss_stops_service(self, hdfs):
        client = hdfs.client("c")
        hdfs.kill_journal_node(0)
        hdfs.kill_journal_node(1)
        with pytest.raises((NameNodeUnavailableError, RetriableError)):
            client.mkdirs("/x")
        assert not hdfs.active.alive
