"""The observability subsystem: registry, tracing, exporters, wiring."""

import json
import sys
import threading
import time
import tracemalloc

import pytest

from repro.dal.memory_driver import MemoryDriver
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.hopsfs.hintcache import InodeHintCache
from repro.metrics import export
from repro.metrics.registry import RECENT_SAMPLES, MetricsRegistry
from repro.metrics.tracing import Tracer, add_event, span
from repro.util.clock import ManualClock
from repro.util.stats import percentile

from tests.conftest import make_hopsfs


def make_memory_fs(num_namenodes=1, **config_overrides):
    config = HopsFSConfig(clock=ManualClock(), **config_overrides)
    return HopsFSCluster(num_namenodes=num_namenodes, num_datanodes=3,
                         config=config, driver=MemoryDriver())


# -- registry ------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.inc("ops_total", op="mkdir")
    reg.inc("ops_total", 2, op="mkdir")
    reg.inc("ops_total", op="rename")
    assert reg.get_counter("ops_total", op="mkdir") == 3
    assert reg.get_counter("ops_total", op="rename") == 1
    assert reg.get_counter("ops_total", op="unknown") == 0
    assert reg.sum_counters("ops_total") == 4

    reg.set_gauge("cache_size", 7)
    assert reg.get_gauge("cache_size") == 7
    assert reg.get_gauge("not_set") is None

    for v in (0.1, 0.2, 0.3):
        reg.observe("latency_seconds", v, op="stat")
    hist = reg.get_histogram("latency_seconds", op="stat")
    assert hist.count == 3
    assert hist.total == pytest.approx(0.6)
    assert hist.max == pytest.approx(0.3)
    assert hist.percentile(50.0) == pytest.approx(0.2)


def test_counters_reject_negative_increments():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.inc("ops_total", -1)


def test_label_sets_are_distinct_and_order_insensitive():
    reg = MetricsRegistry()
    reg.inc("c", op="a", table="t")
    reg.inc("c", table="t", op="a")  # same metric, different kwarg order
    reg.inc("c", op="b", table="t")
    assert reg.get_counter("c", op="a", table="t") == 2
    assert reg.get_counter("c", op="b", table="t") == 1


def test_registry_thread_safety_under_concurrent_recording():
    reg = MetricsRegistry()
    threads, per_thread = 8, 2000
    barrier = threading.Barrier(threads)

    def work(i):
        barrier.wait()
        for n in range(per_thread):
            reg.inc("hits_total", op=f"op{n % 3}")
            reg.observe("lat_seconds", n * 1e-6)
            reg.set_gauge("last", n)

    workers = [threading.Thread(target=work, args=(i,))
               for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert reg.sum_counters("hits_total") == threads * per_thread
    assert reg.get_histogram("lat_seconds").count == threads * per_thread


def test_registry_merge_sums_and_folds():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.inc("c", 2, op="x")
    b.inc("c", 3, op="x")
    b.inc("c", 1, op="y")
    a.set_gauge("g", 5)
    b.set_gauge("g", 7)
    for v in (0.1, 0.2):
        a.observe("h", v)
    for v in (0.3, 0.4):
        b.observe("h", v)
    a.merge(b)
    assert a.get_counter("c", op="x") == 5
    assert a.get_counter("c", op="y") == 1
    assert a.get_gauge("g") == 12
    hist = a.get_histogram("h")
    assert hist.count == 4
    assert hist.total == pytest.approx(1.0)
    assert hist.max == pytest.approx(0.4)


def test_histogram_totals_exact_beyond_the_ring():
    hist = MetricsRegistry().histogram("h")
    for i in range(5000):
        hist.observe(float(i))
    assert hist.count == 5000
    assert hist.total == sum(range(5000))
    assert hist.max == 4999.0
    assert hist.mean == pytest.approx(2499.5)
    assert len(hist.samples()) == RECENT_SAMPLES  # memory stays bounded


def test_histogram_percentiles_of_a_known_list():
    hist = MetricsRegistry().histogram("h")
    for i in range(100):
        hist.observe(float(i))
    assert hist.percentile(50) == pytest.approx(49.5)
    assert hist.percentiles((50.0, 99.0))[99.0] == pytest.approx(98.01)


def test_histogram_percentiles_are_those_of_the_newest_observations():
    hist = MetricsRegistry().histogram("h")
    values = [float((i * 7919) % 5000) for i in range(5000)]
    for value in values:
        hist.observe(value)
    newest = sorted(values[-RECENT_SAMPLES:])
    for p in (0.0, 50.0, 90.0, 99.0, 100.0):
        assert hist.percentile(p) == percentile(newest, p)


def test_histogram_merge_is_exact_and_order_independent():
    a, b = MetricsRegistry(), MetricsRegistry()
    for v in range(3000):
        a.observe("h", float(v))
    for v in range(50, 80):
        b.observe("h", float(v))
    ab, ba = MetricsRegistry(), MetricsRegistry()
    ab.merge(a)
    ab.merge(b)
    ba.merge(b)
    ba.merge(a)
    for merged in (ab, ba):
        hist = merged.get_histogram("h")
        assert hist.count == 3030
        assert hist.total == sum(range(3000)) + sum(range(50, 80))
        assert hist.max == 2999.0
        assert len(hist.samples()) == RECENT_SAMPLES  # stays bounded
    # the newest samples of both sides, whichever folded first: no RNG
    assert ab.get_histogram("h").samples() == ba.get_histogram("h").samples()
    assert (ab.get_histogram("h").percentiles()
            == ba.get_histogram("h").percentiles())


def test_an_observation_after_folding_a_partial_ring_is_the_newest():
    src = MetricsRegistry().histogram("h")
    for v in range(10):
        src.observe(float(v))
    hist = MetricsRegistry().histogram("h")
    hist.merge(src)
    hist.observe(99.0)
    samples = hist.samples()
    assert samples[:-1] == src.samples()  # nothing folded was overwritten
    assert samples[-1][1] == 99.0
    assert [v for _, v in samples] == [*map(float, range(10)), 99.0]


def test_a_wrapped_ring_keeps_the_newest_in_observation_order():
    hist = MetricsRegistry().histogram("h")
    for v in range(RECENT_SAMPLES + 5):
        hist.observe(float(v))
    values = [v for _, v in hist.samples()]
    assert values == [float(v) for v in range(5, RECENT_SAMPLES + 5)]
    times = [t for t, _ in hist.samples()]
    assert times == sorted(times)


def test_a_wrapped_ring_windows_only_the_samples_inside_the_window():
    hist = MetricsRegistry().histogram("h")
    base = time.time() - 100.0
    old = [(base + i / 100, 1.0) for i in range(RECENT_SAMPLES)]
    hist.fold(len(old), float(len(old)), 1.0, old, {})
    for v in range(5):  # wraps: overwrites the five oldest slots
        hist.observe(100.0 + v)
    now = time.time()
    recent = hist.window(60.0, now=now)
    assert (recent["p50"], recent["max"]) == (102.0, 104.0)
    assert recent["mean"] == pytest.approx(102.0)
    # reaching back into the folded samples: the ones after the window's
    # start, none of the overwritten ones, and the new ones
    kept = [v for t, v in old[5:] if t > now - 90.0]
    assert 0 < len(kept) < RECENT_SAMPLES - 5
    wide = hist.window(90.0, now=now)
    assert wide["mean"] == pytest.approx((sum(kept) + 510.0) / (len(kept) + 5))


def test_a_sample_snapshot_round_trips_through_a_registry():
    reg = MetricsRegistry()
    reg.inc("c_total", 3, op="x")
    for v in range(RECENT_SAMPLES + 7):
        reg.observe("h_seconds", v / 1000.0, op="x")
    reg.observe("h_seconds", 0.5, op="y")
    first = export.snapshot(reg, include_samples=True)
    again = export.snapshot(export.registry_from_snapshot(
        json.loads(json.dumps(first))), include_samples=True)
    assert again == first


def test_a_full_ring_costs_about_its_sixteen_bytes_a_sample():
    hist = MetricsRegistry().histogram("h")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for v in range(5000):
            hist.observe(v / 1000.0)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(hist.samples()) == RECENT_SAMPLES
    assert allocated <= 48 * 1024, allocated  # a tuple ring is ~195 KiB


@pytest.mark.parametrize("attempt", range(5))
def test_records_stay_exact_while_other_threads_read_and_fold(attempt):
    """Eight writers record lock-free while a ninth thread keeps folding
    through reads, with the interpreter switching threads every
    microsecond: no record is lost or counted twice (a fold that swapped
    in a fresh pending list would drop the records of writers still
    holding the old one). One run may interleave too little to lose a
    record, so it runs five times."""
    reg = MetricsRegistry()
    hist, counter = reg.histogram("h_seconds"), reg.counter("c_total")
    writers, per_writer = 8, 5000
    start, done = threading.Barrier(writers + 1), threading.Event()

    def write():
        start.wait()
        for n in range(per_writer):
            hist.observe(n % 7)
            counter.inc(n % 3)

    def read():
        start.wait()
        while not done.is_set():
            hist.window(60.0)
            counter.window(60.0)
            hist.state()
            counter.state()
            export.snapshot(reg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read)
        threads = [threading.Thread(target=write) for _ in range(writers)]
        reader.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        done.set()
        reader.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [reader, *threads])
    count, total, _max, samples, buckets = hist.state()
    assert count == writers * per_writer
    assert total == writers * sum(n % 7 for n in range(per_writer))
    assert sum(buckets.values()) == writers * per_writer
    assert len(samples) == RECENT_SAMPLES
    value, buckets = counter.state()
    assert value == writers * sum(n % 3 for n in range(per_writer))
    assert sum(buckets.values()) == value


def test_a_record_keeps_the_second_it_was_made_in(monkeypatch):
    """A record folded five seconds after it was made lands in the bucket
    of its own second, and the ring keeps its own wall time."""
    made = 1_000_000.25
    clock = [made]
    monkeypatch.setattr(time, "time", lambda: clock[0])
    reg = MetricsRegistry()
    hist, counter = reg.histogram("h_seconds"), reg.counter("c_total")
    hist.observe(0.5)
    counter.inc(2)
    clock[0] = made + 5.0
    assert hist.samples() == [(made, 0.5)]
    assert hist.state()[4] == {int(made): 1.0}
    assert counter.state() == (2.0, {int(made): 2.0})
    assert hist.window(3.0)["count"] == counter.window(3.0)["count"] == 0
    assert hist.window(10.0)["count"] == 1
    assert counter.window(10.0)["count"] == 2


COUNTER_READS = {
    "value": (lambda c: c.value, 2.0),
    "state": (lambda c: c.state()[0], 2.0),
    "window": (lambda c: c.window(60.0)["count"], 2.0),
    "fold": (lambda c: c.fold(0.0, {}), None),
}

HISTOGRAM_READS = {
    "count": (lambda h: h.count, 1),
    "total": (lambda h: h.total, 0.25),
    "max": (lambda h: h.max, 0.25),
    "mean": (lambda h: h.mean, 0.25),
    "percentiles": (lambda h: h.percentiles()[50.0], 0.25),
    "samples": (lambda h: h.samples()[-1][1], 0.25),
    "state": (lambda h: h.state()[0], 1),
    "window": (lambda h: h.window(60.0)["p50"], 0.25),
    "fold": (lambda h: h.fold(0, 0.0, 0.0, [], {}), None),
    "merge": (lambda h: h.merge(MetricsRegistry().histogram("h")), None),
}


@pytest.mark.parametrize("read, expected", COUNTER_READS.values(),
                         ids=COUNTER_READS)
def test_every_counter_read_folds_the_pending_records_first(read, expected):
    counter = MetricsRegistry().counter("c_total")
    counter.inc(2)
    assert read(counter) == expected
    assert counter._pending == []


@pytest.mark.parametrize("read, expected", HISTOGRAM_READS.values(),
                         ids=HISTOGRAM_READS)
def test_every_histogram_read_folds_the_pending_records_first(read,
                                                              expected):
    hist = MetricsRegistry().histogram("h_seconds")
    hist.observe(0.25)
    assert read(hist) == expected
    assert hist._pending == []


def test_a_merge_reads_the_pending_records_of_its_source():
    src = MetricsRegistry()
    src.inc("c_total", 2)
    src.observe("h_seconds", 0.25)
    dst = MetricsRegistry()
    dst.merge(src)
    assert dst.get_counter("c_total") == 2
    assert dst.get_histogram("h_seconds").samples()[-1][1] == 0.25
    snap = export.snapshot(src)
    assert [c["value"] for c in snap["counters"]] == [2]


# -- satellite fixes: hint cache -----------------------------------------------


def test_hintcache_clear_resets_counters_and_snapshot_is_consistent():
    cache = InodeHintCache(capacity=2)
    cache.put(1, "a", 10, 1, True)
    cache.get(1, "a")       # hit
    cache.get(1, "zz")      # miss
    cache.put(1, "b", 11, 1, True)
    cache.put(1, "c", 12, 1, True)  # evicts "a"
    snap = cache.snapshot()
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["evictions"] == 1
    assert snap["size"] == 2 and snap["capacity"] == 2
    assert snap["hit_rate"] == pytest.approx(0.5)
    cache.clear()
    snap = cache.snapshot()
    assert snap == {"size": 0, "capacity": 2, "hits": 0, "misses": 0,
                    "invalidations": 0, "evictions": 0, "hit_rate": 0.0}


# -- tracing -------------------------------------------------------------------


def test_tracer_span_nesting_and_phases():
    tracer = Tracer()
    with tracer.trace("op"):
        with span("execute"):
            with span("resolve", depth=3):
                add_event("db.batched_pk", table="inodes")
            with span("commit"):
                pass
    trace, = tracer.recent()
    assert trace.op == "op"
    execute, = trace.spans("execute")
    assert [c.name for c in execute.children] == ["resolve", "commit"]
    assert trace.events("db.batched_pk")[0].labels == {"table": "inodes"}
    phases = trace.phases()
    assert set(phases) == {"execute", "resolve", "commit"}
    # execute contributes self time: phases never double count
    assert phases["execute"] + phases["resolve"] + phases["commit"] \
        <= trace.duration + 1e-9


def test_tracer_sampling_and_ring_bound():
    tracer = Tracer(ring_size=4, sample_every=2)
    for _ in range(10):
        with tracer.trace("op"):
            pass
    assert tracer.traces_started == 5
    assert tracer.traces_dropped == 5
    assert len(tracer.recent()) == 4  # ring stays bounded
    assert len(Tracer(sample_every=0).trace("op").__enter__() or []) == 0


def test_tracer_slow_log_and_registry_fold(monkeypatch):
    reg = MetricsRegistry()
    monkeypatch.setattr(Tracer, "SLOW_THRESHOLD", 0.0)  # everything is slow
    tracer = Tracer(registry=reg)
    with tracer.trace("mkdir"):
        with span("execute"):
            pass
    assert [t.op for t in tracer.slow_ops()] == ["mkdir"]
    assert reg.get_counter("hopsfs_slow_ops_total", op="mkdir") == 1
    hist = reg.get_histogram("hopsfs_phase_seconds", phase="execute", op="mkdir")
    assert hist is not None
    # the new op label means no un-labelled series exists any more
    assert reg.get_histogram("hopsfs_phase_seconds", phase="execute") is None


def test_span_is_noop_outside_a_trace():
    with span("execute") as s:
        assert s is None
    add_event("orphan")  # must not raise


# -- wiring: real operations on the in-memory DAL ------------------------------


def test_mkdir_and_rename_produce_ordered_phase_spans():
    fs = make_memory_fs(trace_sample_every=1)
    nn = fs.namenodes[0]
    nn.mkdirs("/a/b")
    nn.create("/a/b/f")
    nn.rename("/a/b/f", "/a/b/g")

    traces = {t.op: t for t in nn.tracer.recent()}
    assert {"mkdirs", "create", "rename"} <= set(traces)

    rename = traces["rename"]
    # attempt 0 has no "execute" span, so phase spans sit on the root
    names = [c.name for c in rename.root.children]
    # resolve comes before the strongest-lock re-read, which comes before
    # any database work of the operation body; commit ends the trace
    assert names.index("resolve") < names.index("lock")
    assert names[-1] == "commit"
    # rename resolves both source and destination paths
    assert len(rename.spans("resolve")) == 2
    # per-op metrics recorded alongside the trace
    assert nn.metrics.get_counter("fs_op_total", op="rename") == 1
    hist = nn.metrics.get_histogram("fs_op_seconds", op="rename")
    assert hist is not None and hist.count == 1


def test_warm_cache_resolve_emits_exactly_one_batched_pk_span():
    fs = make_memory_fs(trace_sample_every=1)
    nn = fs.namenodes[0]
    nn.mkdirs("/a/b/c")
    nn.create("/a/b/c/f")
    nn.get_file_info("/a/b/c/f")  # warm the hint cache fully

    nn.get_file_info("/a/b/c/f")
    trace = nn.tracer.recent(1)[0]
    assert trace.op == "stat"
    resolve, = trace.spans("resolve")
    assert resolve.labels["method"] == "batched"
    batched = [e for e in trace.events("db.batched_pk")
               if e.labels["table"] == "inodes"]
    assert len(batched) == 1  # the one batched read of paper §5.1


def test_db_access_kinds_bridge_into_registry():
    fs = make_memory_fs()
    nn = fs.namenodes[0]
    nn.mkdirs("/x/y")
    nn.get_file_info("/x/y")
    assert nn.metrics.get_counter("db_access_total", kind="batched_pk") > 0
    assert nn.metrics.get_counter("db_round_trips_total") > 0
    reg = nn.metrics_registry()
    assert reg.get_gauge("hint_cache_hit_rate") is not None
    assert reg.get_gauge("hint_cache_size") >= 1


def test_subtree_delete_records_size_and_latency_metrics():
    fs = make_memory_fs()
    nn = fs.namenodes[0]
    nn.mkdirs("/big/sub")
    nn.create("/big/f1")
    nn.create("/big/sub/f2")
    assert nn.delete("/big", recursive=True)
    hist = nn.metrics.get_histogram("subtree_op_seconds", op="delete")
    assert hist is not None and hist.count == 1
    # /big + /big/sub + 2 files
    assert nn.metrics.get_counter("subtree_op_inodes_total", op="delete") == 4


def test_every_subtree_op_records_size_and_latency_metrics():
    """chmod, chown, set-quota and move run the same three phases as a
    recursive delete and record the same family, labelled by op."""
    fs = make_memory_fs()
    nn = fs.namenodes[0]
    nn.mkdirs("/big/sub")
    nn.create("/big/f1")
    nn.create("/big/sub/f2")
    nn.set_permission("/big", 0o700)  # non-empty: escalates to §6
    nn.set_owner("/big", "u", "g")
    nn.set_quota("/big", 100, None)
    assert nn.rename("/big", "/moved")
    for op in ("chmod", "chown", "set_quota", "move"):
        hist = nn.metrics.get_histogram("subtree_op_seconds", op=op)
        assert hist is not None and hist.count == 1, op
        assert nn.metrics.get_counter("subtree_op_inodes_total", op=op) == 4


def test_sampling_disables_traces_but_keeps_metrics():
    fs = make_memory_fs(trace_sample_every=0)
    nn = fs.namenodes[0]
    nn.mkdirs("/only/metrics")
    assert nn.tracer.recent() == []
    assert nn.metrics.get_counter("fs_op_total", op="mkdirs") == 1


# -- cluster aggregation -------------------------------------------------------


def test_cluster_registry_merges_namenodes_and_recomputes_hit_rate():
    fs = make_memory_fs(num_namenodes=2)
    nn1, nn2 = fs.namenodes
    nn1.mkdirs("/a")
    nn2.mkdirs("/b")
    merged = fs.metrics_registry()
    total = (nn1.metrics.get_counter("fs_op_total", op="mkdirs")
             + nn2.metrics.get_counter("fs_op_total", op="mkdirs"))
    assert merged.get_counter("fs_op_total", op="mkdirs") == total == 2
    hit_rate = merged.get_gauge("hint_cache_hit_rate")
    assert 0.0 <= hit_rate <= 1.0  # recomputed, not a sum of per-NN rates


def test_cluster_snapshot_includes_ndb_lock_gauges():
    fs = make_hopsfs()
    fs.any_namenode().mkdirs("/locked")
    snap = fs.metrics_snapshot()
    gauges = {g["name"] for g in snap["gauges"]}
    assert {"ndb_lock_waits", "ndb_lock_deadlocks", "ndb_lock_timeouts",
            "ndb_lock_wait_seconds", "ndb_lock_table_size"} <= gauges
    assert snap["meta"]["namenodes"] == 2


# -- exporters -----------------------------------------------------------------


def test_json_snapshot_round_trip_preserves_counters():
    fs = make_memory_fs()
    nn = fs.namenodes[0]
    nn.mkdirs("/r/s")
    nn.create("/r/s/f")
    reg = nn.metrics_registry()
    data = export.from_json(export.to_json(reg, meta={"namenode": nn.nn_id}))
    parsed = export.snapshot_counters(data)
    for counter in reg.counters():
        assert parsed[(counter.name, counter.labels)] == counter.value
    assert len(parsed) == len(list(reg.counters()))
    assert data["meta"]["namenode"] == nn.nn_id
    # histograms keep headline stats
    by_name = {(h["name"], tuple(sorted(h["labels"].items())))
               for h in data["histograms"]}
    assert ("fs_op_seconds", (("op", "mkdirs"),)) in by_name


def test_from_json_rejects_unknown_versions():
    with pytest.raises(ValueError):
        export.from_json(json.dumps({"version": 99}))


def test_prometheus_text_format():
    reg = MetricsRegistry()
    reg.inc("fs_op_total", 3, op="mkdir")
    reg.set_gauge("cache_size", 4)
    reg.observe("fs_op_seconds", 0.25, op="mkdir")
    text = export.prometheus_text(reg)
    assert "# TYPE repro_fs_op_total counter" in text
    assert 'repro_fs_op_total{op="mkdir"} 3' in text
    assert "# TYPE repro_cache_size gauge" in text
    assert "# TYPE repro_fs_op_seconds summary" in text
    assert 'repro_fs_op_seconds{op="mkdir",quantile="0.5"} 0.25' in text
    assert 'repro_fs_op_seconds_count{op="mkdir"} 1' in text


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.inc("c", err='boom "quoted"\nnewline')
    text = export.prometheus_text(reg)
    assert r'err="boom \"quoted\"\nnewline"' in text


def test_summary_renders_all_sections():
    fs = make_memory_fs()
    fs.namenodes[0].mkdirs("/t")
    text = export.summary(fs.metrics_registry())
    assert "latency (milliseconds)" in text
    assert "fs_op_seconds{op=mkdirs}" in text
    assert "counters" in text and "gauges" in text
    assert export.summary(MetricsRegistry()) == "(no metrics recorded)"


# -- CLI -----------------------------------------------------------------------


def test_cli_metrics_command():
    from repro.cli import HopsShell

    shell = HopsShell(cluster=make_hopsfs())
    shell.execute("mkdir /cli")
    assert "fs_op_seconds{op=mkdirs}" in shell.execute("metrics")
    prom = shell.execute("metrics prom")
    assert "# TYPE repro_fs_op_total counter" in prom
    data = json.loads(shell.execute("metrics json"))
    assert data["version"] == export.SNAPSHOT_VERSION
    assert shell.execute("metrics slow") == "(no slow operations)"
    assert "usage error" in shell.execute("metrics bogus")
