"""Windowed telemetry plane: sliding windows, SLOs, the metrics HTTP
endpoint, and the ``repro top`` console.

The merge-correctness property at the heart of the window design:
``cluster.metrics_registry()`` re-merges per-namenode registries into a
fresh registry on *every* call, so folding totals through the normal
``inc`` path would stamp all historical traffic into the current second
each time — windows must travel with their original timestamps.
"""

import json
import time
import urllib.request

import pytest

from repro.errors import ProtocolError
from repro.metrics import export
from repro.metrics.registry import MetricsRegistry
from repro.metrics.slo import SLO
from repro.metrics.top import main as top_main
from repro.metrics.top import render_top
from repro.ndb import NDBConfig
from repro.rpc import ClientConn, NDBServer, dial


# -- sliding windows -----------------------------------------------------------


class TestWindows:
    def test_counter_window_counts_recent_traffic_only(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        counter.inc(5)
        now = time.time()
        view = counter.window(60, now=now)
        assert view["count"] == 5
        assert view["rate"] == pytest.approx(5 / 60)
        # the same traffic is invisible from far enough in the future
        assert counter.window(60, now=now + 120)["count"] == 0

    def test_histogram_window_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("op_seconds", op="mkdir")
        for ms in (1, 2, 3, 4, 100):
            hist.observe(ms / 1e3)
        view = hist.window(30)
        assert view["count"] == 5
        assert view["max"] == pytest.approx(0.100)
        assert 0.002 <= view["p50"] <= 0.004
        assert view["p99"] > view["p50"]
        # lifetime reservoir unaffected by window queries
        assert hist.count == 5

    def test_merge_does_not_replay_traffic_into_now(self):
        source = MetricsRegistry()
        source.inc("ops_total", 10)
        source.observe("op_seconds", 0.01)
        # pretend time passes: query relative to a future 'now'
        future = time.time() + 300
        merged = MetricsRegistry()
        merged.merge(source)
        merged.merge(source)  # cluster aggregators re-merge per call
        assert merged.get_counter("ops_total") == 20
        # windows carry the ORIGINAL timestamps — nothing shows up 'now'
        assert merged.counter("ops_total").window(60,
                                                  now=future)["count"] == 0
        hist = merged.get_histogram("op_seconds")
        assert hist.window(60, now=future)["count"] == 0
        # ...but the traffic is visible from its own era
        assert merged.counter("ops_total").window(60)["count"] == 20

    def test_snapshot_round_trip_preserves_windows(self):
        registry = MetricsRegistry()
        registry.inc("ops_total", 4)
        hist = registry.histogram("op_seconds")
        for i in range(3000):  # more than the ring holds
            hist.observe((i * 37 % 1000) / 1e4)
        data = json.loads(json.dumps(
            export.snapshot(registry, include_samples=True)))
        rebuilt = export.registry_from_snapshot(data)
        assert rebuilt.counter("ops_total").window(60)["count"] == 4
        now = time.time()
        back = rebuilt.get_histogram("op_seconds")
        assert (back.count, back.total, back.max) == (
            hist.count, hist.total, hist.max)
        assert back.percentiles() == hist.percentiles()
        assert back.window(60, now=now) == hist.window(60, now=now)
        assert back.window(60, now=now)["count"] == 3000

    def test_sampleless_snapshot_has_no_window_state(self):
        registry = MetricsRegistry()
        registry.inc("ops_total", 4)
        registry.observe("op_seconds", 0.02)
        data = export.snapshot(registry, include_samples=False)
        assert "buckets" not in data["counters"][0]
        assert "samples" not in data["histograms"][0]
        rebuilt = export.registry_from_snapshot(data)
        assert rebuilt.get_counter("ops_total") == 4  # totals still exact
        assert rebuilt.counter("ops_total").window(60)["count"] == 0

    def test_windows_helper_skips_idle_metrics(self):
        registry = MetricsRegistry()
        registry.inc("busy_total", 2)
        idle = registry.counter("idle_total")  # registered, no traffic
        assert idle.window(60)["count"] == 0
        view = export.windows(registry, 60)
        names = [c["name"] for c in view["counters"]]
        assert names == ["busy_total"]
        assert view["window_seconds"] == 60


# -- SLOs ----------------------------------------------------------------------


class TestSLO:
    def test_availability_burn_rate(self):
        registry = MetricsRegistry()
        registry.inc("fs_ops_total", 1000)
        registry.inc("fs_op_failures_total", 5)
        slo = SLO("op-success", objective=0.999,
                  total="fs_ops_total", bad="fs_op_failures_total")
        status = slo.status(registry)
        assert status["kind"] == "availability"
        assert status["sli"] == pytest.approx(0.995)
        assert status["burn_rate"] == pytest.approx(5.0)
        assert not status["healthy"]

    def test_latency_slo(self):
        registry = MetricsRegistry()
        for ms in [10] * 98 + [200, 300]:
            registry.observe("fs_op_seconds", ms / 1e3, op="mkdir")
        slo = SLO("op-latency", objective=0.95,
                  latency="fs_op_seconds", threshold=0.050)
        status = slo.status(registry)
        assert status["kind"] == "latency"
        assert status["sli"] == pytest.approx(0.98)
        assert status["healthy"]
        tight = SLO("tight", objective=0.99,
                    latency="fs_op_seconds", threshold=0.050)
        assert not tight.status(registry)["healthy"]

    def test_the_docstring_example_reads_an_ndb_servers_errors(self):
        """The availability example in ``SLO``'s docstring names families
        an ndb-server registers: after N good requests and one that
        fails, it reads ``1 - 1/(N+1)``."""
        good = 5
        with NDBServer(config=NDBConfig(num_datanodes=2, replication=1)
                       ) as server:
            conn = ClientConn(dial(server.host, server.port, timeout=5.0))
            try:
                for _ in range(good):
                    conn.call("ping", {})
                with pytest.raises(ProtocolError, match="unknown method"):
                    conn.call("no.such.method", {})
            finally:
                conn.close()
            slo = SLO("rpc-success", objective=0.999,
                      total="rpc_requests_total", bad="rpc_errors_total")
            status = slo.status(server.registry)
        assert status["events"] == good + 1
        assert status["sli"] == pytest.approx(1 - 1 / (good + 1))

    def test_no_traffic_is_healthy_with_null_sli(self):
        slo = SLO("quiet", objective=0.99,
                  total="a_total", bad="b_total")
        status = slo.status(MetricsRegistry())
        assert status["sli"] is None
        assert status["healthy"]
        assert status["burn_rate"] == 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SLO("x", objective=1.5, total="a", bad="b")
        with pytest.raises(ValueError):
            SLO("x", objective=0.9)  # neither kind
        with pytest.raises(ValueError):
            SLO("x", objective=0.9, total="a", bad="b",
                latency="h", threshold=0.1)  # both kinds


# -- the metrics HTTP endpoint and repro top -----------------------------------


def _ndb_server_with_http():
    from repro.ndb import NDBConfig
    from repro.rpc import NDBServer

    return NDBServer(config=NDBConfig(), metrics_port=0)


class TestMetricsEndpoint:
    def test_http_endpoint_serves_prom_json_and_health(self):
        from repro.dal import RemoteDriver

        with _ndb_server_with_http() as server:
            assert server.metrics_http_port > 0
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            for _ in range(3):
                driver.ping()
            driver.close()
            base = f"http://{server.host}:{server.metrics_http_port}"
            with urllib.request.urlopen(base + "/metrics", timeout=5) as r:
                assert r.headers["Content-Type"].startswith("text/plain")
                text = r.read().decode()
            assert "repro_rpc_requests_total" in text
            with urllib.request.urlopen(base + "/metrics.json?window=30",
                                        timeout=5) as r:
                data = json.loads(r.read())
            assert data["version"] == export.SNAPSHOT_VERSION
            windows = data["windows"]
            assert windows["window_seconds"] == 30
            assert any(c["name"] == "rpc_requests_total"
                       for c in windows["counters"])
            # sample-carrying: the snapshot merges into top correctly
            assert any("samples" in h for h in data["histograms"])
            with urllib.request.urlopen(base + "/healthz", timeout=5) as r:
                health = json.loads(r.read())
            assert health["ok"] is True
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/nope", timeout=5)

    def test_open_txs_gauge_tracks_begin_commit_abort(self):
        from repro.dal import RemoteDriver
        from repro.ndb import LockMode, TableSchema

        schema = TableSchema(name="g", columns=("k",), primary_key=("k",))
        with _ndb_server_with_http() as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            driver.create_table(schema)
            session = driver.session()
            gauge = lambda: server.registry.get_gauge("rpc_open_txs")
            tx = session.begin()
            assert not gauge()  # begin is client-local...
            tx.read("g", (1,), lock=LockMode.EXCLUSIVE)
            assert gauge() == 1  # ...the first request opens it
            tx.insert("g", {"k": 1})
            tx.commit()
            assert gauge() == 0
            tx = session.begin()
            tx.read("g", (1,), lock=LockMode.EXCLUSIVE)
            assert gauge() == 1
            tx.abort()  # read-only: a one-way frame, so poll for it
            deadline = time.monotonic() + 2.0
            while gauge() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert gauge() == 0
            driver.close()

    def test_metrics_rpc_accepts_window_param(self):
        from repro.dal import RemoteDriver

        with _ndb_server_with_http() as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            driver.ping()
            data = driver.metrics_snapshot(window=45)
            driver.close()
        assert data["windows"]["window_seconds"] == 45

    def test_a_window_that_is_not_a_positive_number_is_refused(self):
        """A NaN window used to come back as ``"window_seconds": NaN``
        (not JSON) and a negative one as an empty view: over RPC it is a
        ProtocolError, over HTTP a 400, and the server serves on."""
        from repro.dal import RemoteDriver

        with _ndb_server_with_http() as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            base = f"http://{server.host}:{server.metrics_http_port}"
            try:
                for window in (float("nan"), float("inf"), -5, 0):
                    with pytest.raises(ProtocolError, match="window"):
                        driver.metrics_snapshot(window=window)
                for window in ("nan", "inf", "-5", "0", "soon"):
                    with pytest.raises(urllib.error.HTTPError) as caught:
                        urllib.request.urlopen(
                            f"{base}/metrics.json?window={window}", timeout=5)
                    assert caught.value.code == 400
                assert driver.metrics_snapshot(
                    window=0.5)["windows"]["window_seconds"] == 0.5
            finally:
                driver.close()


class TestEngineGaugeParity:
    """The cluster snapshot has the same database columns whether the
    engine is in-process or behind an ndb-server (where they used to be
    missing: the ledger read ``ndb.lock_waits`` as null)."""

    GAUGES = ("ndb_lock_waits", "ndb_lock_deadlocks", "ndb_lock_timeouts",
              "ndb_lock_wait_seconds", "ndb_lock_table_size",
              "ndb_group_commit_flushes", "ndb_group_commit_records")

    @pytest.fixture(params=["embedded", "process"])
    def deployed(self, request):
        from repro.dal import NDBCluster, RemoteDriver
        from repro.hopsfs import HopsFSCluster
        from repro.ndb import NDBConfig
        from repro.rpc import NDBServer

        config = NDBConfig(num_datanodes=4, replication=2, lock_timeout=2.0)
        if request.param == "embedded":
            driver = NDBCluster(config)
            yield HopsFSCluster(num_namenodes=1, driver=driver), driver
            return
        with NDBServer(config=config) as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            try:
                yield HopsFSCluster(num_namenodes=1, driver=driver), driver
            finally:
                driver.close()

    @staticmethod
    def _gauges(fs):
        return {g["name"]: g["value"]
                for g in fs.metrics_snapshot()["gauges"] if not g["labels"]}

    def test_lock_and_group_commit_gauges_on_both_deploys(self, deployed):
        import threading
        from repro.ndb import LockMode

        fs, driver = deployed
        fs.namenodes[0].mkdirs("/gauges/a")
        before = self._gauges(fs)
        assert set(self.GAUGES) <= set(before)
        assert before["ndb_lock_waits"] == 0  # a number, not a hole
        assert before["ndb_group_commit_records"] > 0
        # provoke exactly one lock wait and see it arrive
        holder = driver.session().begin()
        holder.read("inodes", (0, 0, ""), lock=LockMode.EXCLUSIVE)
        waiter = threading.Thread(target=lambda: driver.session().run(
            lambda tx: tx.read("inodes", (0, 0, ""), lock=LockMode.SHARED)))
        waiter.start()
        deadline = time.monotonic() + 2.0
        while (self._gauges(fs)["ndb_lock_waits"] == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert self._gauges(fs)["ndb_lock_table_size"] == 1
        holder.abort()
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        after = self._gauges(fs)
        assert after["ndb_lock_waits"] == before["ndb_lock_waits"] + 1
        assert after["ndb_lock_wait_seconds"] > 0

    def test_a_dead_server_does_not_take_the_cluster_metrics_down(self):
        from repro.dal import RemoteDriver
        from repro.hopsfs import HopsFSCluster
        from repro.ndb import NDBConfig
        from repro.rpc import NDBServer

        with NDBServer(config=NDBConfig(num_datanodes=2)) as server:
            driver = RemoteDriver(server.host, server.port, timeout=5.0,
                                  max_reconnect_attempts=1)
            fs = HopsFSCluster(num_namenodes=1, driver=driver)
            fs.namenodes[0].mkdirs("/x")
        try:  # the server is gone; the namenodes' own metrics still read
            names = {c["name"] for c in fs.metrics_snapshot()["counters"]}
            assert "fs_op_total" in names
        finally:
            driver.close()


class TestTop:
    def _snapshots(self):
        a = MetricsRegistry()
        a.inc("rpc_requests_total", 40, method="tx.read")
        for ms in (5, 6, 7, 50):
            a.observe("fs_op_seconds", ms / 1e3, op="mkdir")
        b = MetricsRegistry()
        b.inc("rpc_requests_total", 20, method="tx.read")
        b.set_gauge("rpc_open_txs", 3)
        return [export.snapshot(a, include_samples=True),
                export.snapshot(b, include_samples=True)]

    def test_render_top_merges_and_shows_windowed_p99(self):
        text = render_top(self._snapshots(), window=60)
        assert "2 source(s)" in text
        assert "fs_op_seconds{op=mkdir}" in text
        # merged counter: 40 + 20 over the window
        line = next(ln for ln in text.splitlines()
                    if "rpc_requests_total" in ln)
        assert "60" in line
        assert "rpc_open_txs" in text
        # the p99 column reflects the slow outlier (50ms)
        hist_line = next(ln for ln in text.splitlines()
                         if "fs_op_seconds" in ln)
        assert "49." in hist_line or "50." in hist_line

    def test_render_top_with_slo_and_errors(self):
        slo = SLO("lat", objective=0.5,
                  latency="fs_op_seconds", threshold=0.010)
        text = render_top(self._snapshots(), window=60, slos=[slo],
                          errors=["10.0.0.1:999: timeout"])
        assert "lat" in text and "ok" in text
        assert "! 10.0.0.1:999: timeout" in text

    def test_render_top_idle(self):
        text = render_top([export.snapshot(MetricsRegistry(),
                                           include_samples=True)],
                          window=5)
        assert "no traffic" in text

    def test_top_cli_once_with_snapshot_file(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        registry = MetricsRegistry()
        registry.observe("fs_op_seconds", 0.02, op="rename")
        path.write_text(export.to_json(registry, include_samples=True))
        assert top_main(["--once", "--snapshot", str(path),
                         "--window", "30"]) == 0
        out = capsys.readouterr().out
        assert "fs_op_seconds{op=rename}" in out

    def test_top_cli_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            top_main(["--once"])

    def test_top_against_live_server_pool(self, tmp_path):
        """The acceptance path: windowed fs_op_seconds p99 from a live
        pool — ndb servers polled over RPC, the namenode-side registry
        (where fs_op_seconds lives) folded in as a snapshot file."""
        from repro.dal import RemoteDriver
        from repro.hopsfs import HopsFSCluster, HopsFSConfig
        from repro.metrics.top import fetch_snapshots
        from repro.rpc.supervisor import ServerPool
        from repro.util.clock import ManualClock

        with ServerPool(1, metrics_port=0) as pool:
            host, port = pool.addresses[0]
            driver = RemoteDriver(host, port, timeout=10.0)
            fs = HopsFSCluster(
                num_namenodes=1, num_datanodes=3,
                config=HopsFSConfig(clock=ManualClock(),
                                    trace_sample_every=1),
                driver=driver)
            fs.namenodes[0].mkdirs("/top/a")
            fs.namenodes[0].create("/top/a/f")
            snap_path = tmp_path / "namenode.json"
            snap_path.write_text(export.to_json(
                fs.metrics_registry(), include_samples=True))
            snapshots, errors = fetch_snapshots(
                [f"{host}:{port}"], [str(snap_path)])
            driver.close()
        assert not errors
        assert len(snapshots) == 2
        text = render_top(snapshots, window=60)
        assert "fs_op_seconds{op=mkdirs}" in text
        assert "rpc_request_seconds" in text  # server-side view merged in
        hist_line = next(ln for ln in text.splitlines()
                         if "fs_op_seconds{op=mkdirs}" in ln)
        # rate + p50 + p99 + max columns all rendered numerically
        assert len(hist_line.split()) >= 5
