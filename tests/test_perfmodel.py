"""Tests for the performance models: calibration shape and mechanics.

These assert the *shape* requirements the reproduction must satisfy (who
wins, scaling direction, saturation behaviour) with loose tolerances so
the suite is robust to seed changes. The paper-vs-measured comparison at
full fidelity lives in the benchmarks and EXPERIMENTS.md.
"""

import pytest

from repro.perfmodel.analytic import SaturationModel
from repro.perfmodel.blockreport_model import BlockReportModel
from repro.perfmodel.costs import CostModel
from repro.perfmodel.hdfs_model import simulate_hdfs
from repro.perfmodel.hopsfs_model import simulate_hopsfs
from repro.perfmodel.memory import MemoryModel
from repro.perfmodel.profiles import record_hopsfs_profiles, spotify_profile_table
from repro.perfmodel.subtree_model import SubtreeLatencyModel
from repro.workload.spec import SPOTIFY_WORKLOAD, write_intensive_workload

# keep model runs short: these are mechanics tests, not the benchmarks
FAST = dict(scale=0.05, duration=0.2, warmup=0.1)


@pytest.fixture(scope="module")
def profiles():
    return record_hopsfs_profiles()


class TestProfiles:
    def test_all_workload_ops_have_profiles(self, profiles):
        table = spotify_profile_table(profiles)
        for op in SPOTIFY_WORKLOAD.ops():
            assert op in table, op

    def test_read_path_is_cheap(self, profiles):
        """The paper's discipline: reads use few, cheap round trips."""
        cost = CostModel()
        read = profiles["read"]
        assert read.round_trips <= 5
        assert all(not t.all_shards for t in read.trips)
        assert read.db_thread_time(cost.db_row_cost,
                                   cost.db_trip_overhead) < 300e-6

    def test_stat_cheaper_than_create(self, profiles):
        cost = CostModel()
        stat = profiles["stat"].db_thread_time(cost.db_row_cost,
                                               cost.db_trip_overhead)
        create = profiles["create"].db_thread_time(cost.db_row_cost,
                                                   cost.db_trip_overhead)
        assert stat < create

    def test_top_level_ls_marked_all_shards(self, profiles):
        assert any(t.all_shards for t in profiles["ls_top"].trips)

    def test_hot_rows_only_on_batched_resolution(self, profiles):
        for profile in profiles.values():
            for trip in profile.trips:
                if trip.hot_rows:
                    assert trip.kind == "batched_pk"
                    # the path's read, alone or carrying the op's scans
                    assert trip.table.split("+")[0] == "inodes"
        assert profiles["read"].trips[0].hot_rows  # the riding one too


class TestHopsFSModel:
    def test_throughput_scales_with_namenodes(self, profiles):
        small = simulate_hopsfs(num_namenodes=5, ndb_nodes=12, clients=2000,
                                profiles=profiles, **FAST)
        big = simulate_hopsfs(num_namenodes=20, ndb_nodes=12, clients=6000,
                              profiles=profiles, **FAST)
        assert big.throughput > 2.5 * small.throughput

    def test_throughput_saturates_on_small_ndb(self, profiles):
        few = simulate_hopsfs(num_namenodes=60, ndb_nodes=2, clients=8000,
                              profiles=profiles, **FAST)
        many = simulate_hopsfs(num_namenodes=60, ndb_nodes=12, clients=8000,
                               profiles=profiles, **FAST)
        assert many.throughput > 3 * few.throughput

    def test_scale_invariance(self, profiles):
        """De-scaled throughput must not depend (much) on the scale knob."""
        a = simulate_hopsfs(num_namenodes=20, ndb_nodes=12, clients=4000,
                            profiles=profiles, scale=0.05, duration=0.2)
        b = simulate_hopsfs(num_namenodes=20, ndb_nodes=12, clients=4000,
                            profiles=profiles, scale=0.1, duration=0.2)
        assert a.throughput == pytest.approx(b.throughput, rel=0.2)

    def test_hotspot_caps_throughput(self, profiles):
        normal = simulate_hopsfs(num_namenodes=60, ndb_nodes=12,
                                 clients=8000, profiles=profiles, **FAST)
        hot = simulate_hopsfs(num_namenodes=60, ndb_nodes=12, clients=8000,
                              hotspot=True, profiles=profiles, **FAST)
        assert hot.throughput < 0.4 * normal.throughput

    def test_latency_recorded_per_op(self, profiles):
        result = simulate_hopsfs(num_namenodes=5, ndb_nodes=12, clients=500,
                                 profiles=profiles, **FAST)
        assert result.latency.count > 0
        assert "read" in result.latency_by_op

    def test_kill_schedule_reduces_capacity(self, profiles):
        steady = simulate_hopsfs(num_namenodes=4, ndb_nodes=12, clients=4000,
                                 profiles=profiles, scale=0.1, duration=1.0,
                                 warmup=0.1)
        killed = simulate_hopsfs(num_namenodes=4, ndb_nodes=12, clients=4000,
                                 profiles=profiles, scale=0.1, duration=1.0,
                                 warmup=0.1, kill_times=(0.2, 0.4, 0.6))
        assert killed.operations < steady.operations
        assert killed.operations > 0.2 * steady.operations  # no downtime


class TestHDFSModel:
    def test_spotify_throughput_close_to_paper(self):
        result = simulate_hdfs(clients=2000, duration=0.3)
        assert result.throughput == pytest.approx(78_900, rel=0.15)

    def test_write_share_degrades_throughput(self):
        rates = []
        for frac in (0.05, 0.10, 0.20):
            wl = write_intensive_workload(frac)
            rates.append(simulate_hdfs(clients=1500, duration=0.2,
                                       workload=wl).throughput)
        assert rates[0] > rates[1] > rates[2]

    def test_failover_causes_downtime_window(self):
        result = simulate_hdfs(clients=500, duration=20.0, warmup=1.0,
                               kill_times=(5.0,), timeline_bucket=1.0)
        series = dict(result.timeline.series())
        during = min(series.get(t, 0.0) for t in (6.0, 7.0, 8.0, 9.0))
        after = series.get(18.0, 0.0)
        assert during == 0.0  # total outage while the standby promotes
        assert after > 0.0

    def test_hopsfs_beats_hdfs_by_order_of_magnitude(self):
        hdfs = simulate_hdfs(clients=2000, duration=0.2)
        hopsfs = simulate_hopsfs(num_namenodes=60, ndb_nodes=12,
                                 clients=10000, **FAST)
        assert hopsfs.throughput > 10 * hdfs.throughput


class TestMemoryModel:
    def test_hdfs_example_file_bytes(self):
        model = MemoryModel()
        assert model.hdfs_bytes_per_file() == pytest.approx(458, abs=1)

    def test_hopsfs_example_file_bytes(self):
        """Paper: the 2-block example file takes 1552 B replicated twice."""
        model = MemoryModel()
        assert model.hopsfs_bytes_per_file() == pytest.approx(1552, rel=0.01)

    def test_table3_one_gb_row(self):
        rows = {r["memory"]: r for r in MemoryModel().table3()}
        assert rows["1 GB"]["hdfs_files"] == pytest.approx(2.3e6, rel=0.05)
        assert rows["1 GB"]["hopsfs_files"] == pytest.approx(0.69e6, rel=0.05)

    def test_hdfs_does_not_scale_past_half_tb(self):
        import math

        rows = {r["memory"]: r for r in MemoryModel().table3()}
        assert math.isnan(rows["1 TB"]["hdfs_files"])
        assert math.isnan(rows["24 TB"]["hdfs_files"])

    def test_24tb_holds_about_17_billion_files(self):
        rows = {r["memory"]: r for r in MemoryModel().table3()}
        assert rows["24 TB"]["hopsfs_files"] == pytest.approx(17e9, rel=0.15)

    def test_capacity_advantage_about_37x(self):
        assert MemoryModel().capacity_advantage() == pytest.approx(37, rel=0.2)

    def test_ha_memory_ratio_about_1_5(self):
        assert MemoryModel().ha_memory_ratio() == pytest.approx(1.5, rel=0.15)


class TestSubtreeModel:
    @pytest.fixture
    def model(self):
        return SubtreeLatencyModel()

    @pytest.mark.parametrize("size,paper_ms", [(250_000, 1820),
                                               (500_000, 3151),
                                               (1_000_000, 5870)])
    def test_hopsfs_move_latency(self, model, size, paper_ms):
        assert model.hopsfs_move(size) * 1000 == pytest.approx(
            paper_ms, rel=0.25)

    @pytest.mark.parametrize("size,paper_ms", [(250_000, 5027),
                                               (500_000, 8589),
                                               (1_000_000, 15941)])
    def test_hopsfs_delete_latency(self, model, size, paper_ms):
        assert model.hopsfs_delete(size) * 1000 == pytest.approx(
            paper_ms, rel=0.25)

    @pytest.mark.parametrize("size,paper_ms", [(250_000, 197),
                                               (1_000_000, 357)])
    def test_hdfs_move_latency(self, model, size, paper_ms):
        assert model.hdfs_move(size) * 1000 == pytest.approx(paper_ms,
                                                             rel=0.15)

    def test_hdfs_much_faster_but_delete_grows(self, model):
        assert model.hdfs_delete(1_000_000) < model.hopsfs_delete(1_000_000)
        assert (model.hopsfs_delete(1_000_000)
                > 2 * model.hopsfs_delete(250_000))


class TestBlockReportModel:
    def test_hopsfs_30_namenodes_about_30_reports(self):
        model = BlockReportModel()
        rate = model.hopsfs_reports_per_second(30, 100_000)
        assert rate == pytest.approx(30, rel=0.35)

    def test_hdfs_about_60_reports(self):
        model = BlockReportModel()
        assert model.hdfs_reports_per_second(100_000) == pytest.approx(
            60, rel=0.15)

    def test_exabyte_cluster_feasible(self):
        """§7.7: 512 MB blocks + 6 h interval handle an exabyte cluster."""
        result = BlockReportModel().exabyte_report_load()
        assert result["feasible"]


class TestAnalyticSaturation:
    def test_hopsfs_beats_hdfs_on_reads(self, profiles):
        model = SaturationModel()
        hopsfs = model.hopsfs_throughput("read", profiles["read"], 60)
        hdfs = model.hdfs_throughput("read")
        assert hopsfs > 2 * hdfs

    def test_hdfs_wins_nothing_at_60_namenodes(self, profiles):
        """Figure 7: HopsFS outperforms HDFS for every operation."""
        model = SaturationModel()
        table = spotify_profile_table(profiles)
        for op, profile in table.items():
            assert (model.hopsfs_throughput(op, profile, 60)
                    > model.hdfs_throughput(op)), op

    def test_namenodes_add_throughput_until_db_cap(self, profiles):
        model = SaturationModel()
        series = [model.hopsfs_throughput("stat", profiles["stat"], n)
                  for n in (5, 20, 60)]
        assert series[0] < series[1] <= series[2] * 1.01
