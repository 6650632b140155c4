"""Tests for the block life cycle: URB/PRB/CR/RUC/ER/Inv (paper §4.1)."""

from tests.conftest import make_hopsfs


def table_rows(fs, table):
    session = fs.driver.session()
    return session.run(lambda tx: tx.full_scan(table))


class TestWritePath:
    def test_blocks_and_replicas_created(self, fs, client):
        client.write_file("/f", b"data", replication=2)
        blocks = table_rows(fs, "blocks")
        replicas = table_rows(fs, "replicas")
        assert len(blocks) == 1
        assert blocks[0]["state"] == "complete"
        assert len(replicas) == 2

    def test_block_lookup_rows(self, fs, client):
        client.write_file("/f", b"x")
        lookup = table_rows(fs, "block_lookup")
        blocks = table_rows(fs, "blocks")
        assert {r["block_id"] for r in lookup} == {
            b["block_id"] for b in blocks}

    def test_multi_block_file(self, fs):
        small = make_hopsfs(block_size=4)
        c = small.client()
        c.write_file("/f", b"0123456789")  # 3 blocks at 4-byte block size
        assert c.stat("/f").size == 10
        assert c.read_file("/f") == b"0123456789"
        blocks = table_rows(small, "blocks")
        assert len(blocks) == 3

    def test_ruc_cleared_after_completion(self, fs, client):
        client.write_file("/f", b"x")
        assert table_rows(fs, "ruc") == []

    def test_delete_file_invalidate_replicas(self, fs, client):
        client.write_file("/f", b"x", replication=2)
        client.delete("/f")
        assert table_rows(fs, "blocks") == []
        assert table_rows(fs, "replicas") == []
        inv = table_rows(fs, "inv")
        assert len(inv) == 2
        # housekeeping dispatches deletions to the datanodes
        fs.tick()
        assert table_rows(fs, "inv") == []
        assert all(dn.block_count() == 0 for dn in fs.datanodes)


class TestReplicationManager:
    def test_under_replication_repaired(self, fs, client):
        client.write_file("/f", b"payload", replication=2)
        replicas = table_rows(fs, "replicas")
        dn_with_replica = replicas[0]["dn_id"]
        fs.kill_datanode(dn_with_replica, lose_data=True)
        fs.tick()   # detect failure, schedule re-replication
        fs.tick()   # PRB satisfied -> replica finalized
        replicas = table_rows(fs, "replicas")
        assert len(replicas) == 2
        assert all(r["dn_id"] != dn_with_replica for r in replicas)
        assert table_rows(fs, "urb") == []
        assert table_rows(fs, "prb") == []

    def test_set_replication_down_trims_excess(self, fs, client):
        client.write_file("/f", b"x", replication=3)
        assert len(table_rows(fs, "replicas")) == 3
        client.set_replication("/f", 1)
        fs.tick()
        assert len(table_rows(fs, "replicas")) == 1
        # datanodes told to drop the extra copies
        holders = [dn for dn in fs.datanodes if dn.block_count() > 0]
        assert len(holders) == 1

    def test_one_drain_invalidates_each_files_excess_copies(self, fs,
                                                              client):
        # excess copies queued file by file in descending inode id, so
        # the drain's scan does not return them in key order
        paths = [f"/f{i}" for i in range(4)]
        for path in paths:
            client.write_file(path, path.encode(), replication=3)
        for path in reversed(paths):
            client.set_replication(path, 1)
        assert len(table_rows(fs, "inv")) == 8
        fs.tick()
        assert table_rows(fs, "inv") == []
        assert table_rows(fs, "er") == []
        assert sum(dn.block_count() for dn in fs.datanodes) == 4
        for path in paths:
            assert client.read_file(path) == path.encode()

    def test_set_replication_up_creates_urb(self, fs, client):
        client.write_file("/f", b"x", replication=1)
        client.set_replication("/f", 3)
        assert len(table_rows(fs, "urb")) == 1
        fs.tick()
        fs.tick()
        assert len(table_rows(fs, "replicas")) == 3

    def test_corrupt_replica_repaired(self, fs, client):
        client.write_file("/f", b"good", replication=2)
        replicas = table_rows(fs, "replicas")
        bad_dn = replicas[0]["dn_id"]
        block_id = replicas[0]["block_id"]
        fs.any_namenode().report_bad_block(block_id, bad_dn)
        assert len(table_rows(fs, "cr")) == 1
        fs.tick()
        fs.tick()
        replicas = table_rows(fs, "replicas")
        assert len(replicas) == 2
        # every replica row is backed by real (fresh) data on its datanode
        for replica in replicas:
            dn = fs.datanode(replica["dn_id"])
            assert dn.has_block(replica["block_id"])
        assert client.read_file("/f") == b"good"

    def test_data_survives_datanode_failure(self, fs, client):
        client.write_file("/f", b"important", replication=2)
        replicas = table_rows(fs, "replicas")
        fs.kill_datanode(replicas[0]["dn_id"], lose_data=True)
        fs.tick()
        fs.tick()
        assert client.read_file("/f") == b"important"


class TestBlockReports:
    def test_report_restores_lost_replica_row(self, fs, client):
        client.write_file("/f", b"x", replication=2)
        # simulate metadata divergence: delete one replica row directly
        session = fs.driver.session()
        replicas = session.run(lambda tx: tx.full_scan("replicas"))
        victim = replicas[0]

        def drop(tx):
            tx.delete("replicas", (victim["inode_id"], victim["block_id"],
                                   victim["dn_id"]))

        session.run(drop)
        assert len(table_rows(fs, "replicas")) == 1
        result = fs.send_block_report(victim["dn_id"])
        assert result["added"] == 1
        assert len(table_rows(fs, "replicas")) == 2

    def test_report_removes_stale_replica_row(self, fs, client):
        client.write_file("/f", b"x", replication=2)
        replicas = table_rows(fs, "replicas")
        victim = replicas[0]
        dn = fs.datanode(victim["dn_id"])
        dn.delete_block(victim["block_id"])  # data silently lost
        result = fs.send_block_report(victim["dn_id"])
        assert result["removed"] == 1
        # and the block is now under-replicated
        assert len(table_rows(fs, "urb")) == 1

    def test_report_flags_orphan_blocks(self, fs, client):
        dn = fs.datanodes[0]
        dn.store_block(999_999, b"junk")
        result = fs.send_block_report(dn.dn_id)
        assert result["orphans"] == 1
        assert not dn.has_block(999_999)  # told to delete it

    def test_empty_report_noop(self, fs):
        result = fs.send_block_report(fs.datanodes[0].dn_id)
        assert result["added"] == 0 and result["removed"] == 0

    def test_reports_balanced_across_namenodes(self, fs, client):
        """The leader load balances block reports over namenodes (§3)."""
        targets = {fs._report_target(dn.dn_id).nn_id for dn in fs.datanodes}
        assert len(targets) == min(len(fs.datanodes),
                                   len(fs.live_namenodes()))


class TestReadPath:
    def test_get_block_locations(self, fs, client):
        client.write_file("/f", b"content", replication=2)
        located = client.get_block_locations("/f")
        assert located.file_size == 7
        assert len(located.blocks) == 1
        assert len(located.blocks[0].datanodes) == 2

    def test_zero_length_file_has_no_blocks(self, fs, client):
        client.write_file("/f", b"")
        located = client.get_block_locations("/f")
        assert located.blocks == ()
        assert client.read_file("/f") == b""
