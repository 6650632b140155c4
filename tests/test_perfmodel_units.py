"""Unit tests for performance-model plumbing (not the calibration)."""

import pytest

from repro.perfmodel.costs import CostModel
from repro.perfmodel.hopsfs_model import _distribute
from repro.perfmodel.profiles import OpProfile, TripSpec


class TestCostModelHelpers:
    def test_db_trip_service(self):
        cost = CostModel()
        assert cost.db_trip_service(0) == pytest.approx(cost.db_trip_overhead)
        assert cost.db_trip_service(10) == pytest.approx(
            cost.db_trip_overhead + 10 * cost.db_row_cost)

    def test_total_threads(self):
        cost = CostModel()
        assert cost.ndb_total_threads(12) == 264  # the paper's cluster

    def test_subtree_constants_reproduce_table4_slopes(self):
        cost = CostModel()
        # mv slope ≈ 5.4 µs/inode, rm slope ≈ 14.5 µs/inode (Table 4)
        assert cost.subtree_quiesce_per_inode() == pytest.approx(5.4e-6,
                                                                 rel=0.25)
        assert cost.subtree_delete_per_inode() == pytest.approx(14.5e-6,
                                                                rel=0.25)

    def test_hdfs_fit_reproduces_spotify_capacity(self):
        cost = CostModel()
        f = 0.0526  # total mutation fraction of the Spotify mix
        capacity = 1.0 / ((1 - f) * cost.hdfs_read_cost
                          + f * cost.hdfs_write_cost)
        assert capacity == pytest.approx(78_900, rel=0.05)


class TestDistribute:
    def test_exact_division(self):
        assert _distribute(12.0, 4) == [3, 3, 3, 3]

    def test_remainder_spread(self):
        assert _distribute(13.0, 4) == [4, 3, 3, 3]

    def test_minimum_floor(self):
        assert _distribute(1.5, 4) == [1, 1, 1, 1]

    def test_total_preserved_when_above_floor(self):
        for total in (7.3, 26.4, 64.0, 129.9):
            split = _distribute(total, 12)
            assert sum(split) == max(12, round(total))

    def test_fractional_per_unit(self):
        # 64 handlers x 0.05 scale x 60 namenodes = 192 total
        split = _distribute(64 * 0.05 * 60, 60)
        assert sum(split) == 192
        assert max(split) - min(split) <= 1


class TestOpProfile:
    def test_db_thread_time(self):
        profile = OpProfile(name="x", trips=(
            TripSpec(kind="pk", table="t", rows=1, fanout=1, local=True),
            TripSpec(kind="batched_pk", table="t", rows=7, fanout=4,
                     local=False),
        ))
        assert profile.db_thread_time(10e-6, 20e-6) == pytest.approx(
            (20 + 10) * 1e-6 + (20 + 70) * 1e-6)
        assert profile.round_trips == 2

    def test_all_shards_flag(self):
        scan = TripSpec(kind="index_scan", table="t", rows=1, fanout=8,
                        local=False)
        pk = TripSpec(kind="pk", table="t", rows=1, fanout=1, local=True)
        assert scan.all_shards and not pk.all_shards


class TestBatchedScanPricing:
    """A PPIS event that names several shards (a ``ppis_batch``) is one
    round trip fanned out over its nodes in parallel, exactly as a
    BATCH_PK event is — not one trip per scan and not one node's work."""

    @staticmethod
    def _event(kind, nodes, partitions, rows=8, locked=False):
        from repro.ndb.stats import AccessEvent

        return AccessEvent(kind=kind, table="blocks+replicas",
                           partitions=partitions, nodes=nodes,
                           coordinator=nodes[0], rows=rows, locked=locked)

    def test_a_locking_batched_scan_is_the_same_fan_out(self):
        """The subtree quiesce's locked ``ppis_batch`` event: one trip
        over its nodes in parallel, as the unlocked one."""
        from repro.ndb.stats import AccessKind
        from repro.perfmodel.profiles import _events_to_trips

        unlocked, locked = _events_to_trips([
            self._event(AccessKind.PPIS, (0, 1, 2), (0, 2, 4, 4)),
            self._event(AccessKind.PPIS, (0, 1, 2), (0, 2, 4, 4),
                        locked=True)])
        assert locked == unlocked and locked.fanout == 3

    def test_a_read_carrying_scans_is_one_fan_out_with_a_hot_path_row(self):
        """The resolve whose scans rode (``read_batch(scans=)``): one
        mixed-table BATCH_PK event is one trip over its nodes in
        parallel, priced as the plain batched read of the same rows, and
        its path prefix still holds the hotspot workload's hot row."""
        from dataclasses import replace

        from repro.ndb.stats import AccessEvent, AccessKind
        from repro.perfmodel.analytic import SaturationModel
        from repro.perfmodel.profiles import _events_to_trips

        plain = self._event(AccessKind.BATCH_PK, (0, 1, 2), (0, 2, 4, 4))
        riding = AccessEvent(kind=AccessKind.BATCH_PK,
                             table="inodes+blocks+replicas",
                             partitions=(0, 2, 4, 4, 4), nodes=(0, 1, 2),
                             coordinator=0, rows=8, locked=True)
        plain_trip, riding_trip = _events_to_trips([plain, riding])
        assert riding_trip.fanout == 3 and not riding_trip.all_shards
        assert riding_trip.hot_rows == 1 and plain_trip.hot_rows == 0
        assert replace(riding_trip, table=plain_trip.table,
                       hot_rows=0) == plain_trip
        model = SaturationModel()
        assert model.op_latency(OpProfile(name="r", trips=(riding_trip,))) \
            == pytest.approx(model.op_latency(
                OpProfile(name="p", trips=(plain_trip,))))

    def test_multi_shard_ppis_is_priced_like_a_batched_read(self):
        from repro.ndb.stats import AccessKind
        from repro.perfmodel.analytic import SaturationModel
        from repro.perfmodel.profiles import _events_to_trips

        batched_scan, batched_read, one_shard = _events_to_trips([
            self._event(AccessKind.PPIS, (0, 1, 2), (0, 2, 4, 4)),
            self._event(AccessKind.BATCH_PK, (0, 1, 2), (0, 2, 4, 4)),
            self._event(AccessKind.PPIS, (0,), (0, 0))])
        assert batched_scan.fanout == batched_read.fanout == 3
        assert not batched_scan.local and not batched_scan.all_shards
        assert one_shard.fanout == 1 and one_shard.local
        model = SaturationModel()
        latency = {name: model.op_latency(OpProfile(name=name, trips=(trip,)))
                   for name, trip in (("scan", batched_scan),
                                      ("read", batched_read),
                                      ("single", one_shard))}
        assert latency["scan"] == pytest.approx(latency["read"])
        # same rows, three nodes working in parallel: less than one
        # node doing all of it even after paying the inter-node hop
        row_work = 8 * model.cost.db_row_cost + model.cost.db_trip_overhead
        assert latency["single"] - latency["scan"] == pytest.approx(
            row_work * (1 - 1 / 3) - model.cost.db_internode_hop)


class TestDeterminism:
    def test_same_seed_same_result(self):
        from repro.perfmodel.hdfs_model import simulate_hdfs

        a = simulate_hdfs(clients=100, duration=0.1, seed=3)
        b = simulate_hdfs(clients=100, duration=0.1, seed=3)
        assert a.operations == b.operations
        assert a.latency.mean == b.latency.mean

    def test_different_seed_different_result(self):
        from repro.perfmodel.hdfs_model import simulate_hdfs

        a = simulate_hdfs(clients=100, duration=0.1, seed=3)
        b = simulate_hdfs(clients=100, duration=0.1, seed=4)
        assert a.latency.mean != b.latency.mean
