"""Tracing v2: cross-thread propagation, shard attribution, flight
recorder, timeline export.

The regression at the heart of this file: with parallel shard dispatch
enabled, database work runs on executor threads, and tracing v1 silently
dropped every span/event those threads produced (the thread-local trace
binding did not propagate). v2 captures a :class:`TraceContext` at
submit time, so a parallel-dispatch run must record exactly the same
``db.*`` round-trip events as an inline-dispatch (no executor) run.
"""

import json
from collections import Counter

import pytest

from repro.errors import FileNotFoundError_, TransactionAbortedError
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.metrics import FlightRecorder, Tracer, link_scope, span
from repro.metrics.flightrecorder import dump_all
from repro.metrics.tracing import TraceContext
from repro.ndb import NDBCluster, NDBConfig, TableSchema
from repro.util.clock import ManualClock

from tests.conftest import make_hopsfs


def build_fs(network_delay=0.0, num_namenodes=1):
    """Inline shard dispatch (no executor) unless a simulated round-trip
    latency is given, which fans multi-shard work out on 4 workers."""
    config = HopsFSConfig(clock=ManualClock(), trace_sample_every=1,
                          subtree_batch_size=8, subtree_parallelism=2)
    ndb = NDBConfig(num_datanodes=4, replication=2, lock_timeout=1.0,
                    executor_threads=4 if network_delay else 0,
                    network_delay=network_delay)
    return HopsFSCluster(num_namenodes=num_namenodes, num_datanodes=3,
                         config=config, ndb_config=ndb)


def run_workload(fs):
    nn = fs.namenodes[0]
    nn.mkdirs("/w/a/b")
    nn.create("/w/a/b/f1")
    nn.create("/w/a/f2")
    nn.get_file_info("/w/a/b/f1")
    nn.list_status("/w/a")
    nn.rename("/w/a/f2", "/w/a/f3")
    assert nn.delete("/w/a/f3")
    return nn


def db_event_counts(nn):
    """(op, event-name) -> count over every trace in the ring."""
    counts = Counter()
    for trace in nn.tracer.recent():
        for event in trace.events():
            if event.name.startswith("db."):
                counts[(trace.op, event.name)] += 1
    return counts


# -- the tentpole regression: no span loss on executor threads -----------------


class TestParallelDispatchParity:
    def test_db_events_survive_parallel_dispatch(self):
        sequential = run_workload(build_fs())
        parallel = run_workload(build_fs(network_delay=0.0004))
        seq_counts = db_event_counts(sequential)
        par_counts = db_event_counts(parallel)
        assert sum(seq_counts.values()) > 0
        # identical workload, identical round trips: events recorded on
        # executor threads must not be lost (tracing v1 dropped them)
        assert par_counts == seq_counts

    def test_parallel_traces_carry_shard_labels_and_worker_spans(self):
        nn = run_workload(build_fs(network_delay=0.0004))
        traces = nn.tracer.recent()
        db_events = [e for t in traces for e in t.events()
                     if e.name.startswith("db.")]
        assert db_events
        for event in db_events:
            assert "shard" in event.labels, event.name
            assert "table" in event.labels
        # worker-thread spans landed inside the originating op's tree
        workers = [s for t in traces for s in t.spans()
                   if s.name in ("shard_fetch", "shard_scan",
                                 "commit.participant")]
        assert workers, "no worker-side spans were captured"
        assert any(s.tid != t.root.tid
                   for t in traces for s in t.spans()
                   if s.name == "commit.participant"), \
            "commit participants should run on executor threads"

    def test_lock_wait_spans_carry_shard(self):
        import threading

        from repro.ndb import LockMode

        cluster = NDBCluster(NDBConfig(num_datanodes=4, replication=2,
                                       lock_timeout=2.0))
        cluster.create_table(RETRY_TABLE)
        with cluster.begin() as tx:
            tx.insert("t", {"pk": 1, "v": 0})

        holder_has_lock = threading.Event()
        release = threading.Event()

        def holder():
            tx = cluster.begin()
            tx.read("t", (1,), lock=LockMode.EXCLUSIVE)
            holder_has_lock.set()
            release.wait(5.0)
            tx.commit()

        thread = threading.Thread(target=holder)
        thread.start()
        holder_has_lock.wait(5.0)
        tracer = Tracer(sample_every=1)
        with tracer.trace("contended_read"):
            waiter = cluster.begin()
            timer = threading.Timer(0.05, release.set)
            timer.start()
            waiter.read("t", (1,), lock=LockMode.EXCLUSIVE)
            waiter.commit()
        thread.join()

        trace, = tracer.recent()
        wait, = trace.spans("lock_wait")
        expected = cluster.partition_of("t", (1,))
        assert wait.labels["shard"] == str(expected)
        assert wait.labels["mode"] == "x"
        assert wait.duration > 0

    def test_commit_events_carry_node_group(self):
        nn = run_workload(build_fs())
        commits = [e for t in nn.tracer.recent()
                   for e in t.events("db.commit")]
        assert commits
        for event in commits:
            assert "node_group" in event.labels

    def test_shard_op_histograms_recorded(self):
        nn = run_workload(build_fs(network_delay=0.0004))
        reg = nn.driver.metrics_registry()  # the engine owns ndb_*
        kinds = {dict(h.labels).get("kind") for h in reg.histograms()
                 if h.name == "ndb_shard_op_seconds"}
        assert "commit" in kinds
        assert kinds & {"pk", "batched_pk"}
        shards = {dict(h.labels).get("shard") for h in reg.histograms()
                  if h.name == "ndb_shard_op_seconds"}
        assert any(s not in (None, "-", "multi") for s in shards)


# -- context propagation primitives --------------------------------------------


class TestTraceContext:
    def test_capture_and_bind_parents_under_submitting_span(self):
        import threading

        tracer = Tracer(sample_every=1)
        with tracer.trace("op"):
            with span("execute"):
                ctx = TraceContext.capture()

                def worker():
                    with span("shard_fetch", shard=3):
                        pass

                t = threading.Thread(target=ctx.wrap(worker))
                t.start()
                t.join()
        trace, = tracer.recent()
        execute, = trace.spans("execute")
        fetch, = trace.spans("shard_fetch")
        assert fetch in execute.children
        assert fetch.tid != trace.root.tid

    def test_empty_context_wrap_is_identity(self):
        def fn():
            return 7
        assert TraceContext.capture().wrap(fn) is fn

    def test_link_scope_parents_sibling_traces(self):
        tracer = Tracer(sample_every=1)
        with link_scope():
            with tracer.trace("phase1"):
                pass
            with tracer.trace("phase2"):
                pass
        first, second = tracer.recent()
        assert first.parent_id is None
        assert second.parent_id == first.trace_id
        # the link does not leak past the scope
        with tracer.trace("after"):
            pass
        assert tracer.recent()[-1].parent_id is None

    def test_link_scope_forces_sampling_of_inner_traces(self):
        tracer = Tracer(sample_every=1000)
        with tracer.trace("root"):  # seq 0: sampled
            pass
        root, = tracer.recent()
        with link_scope():
            with tracer.trace("root"):  # pins the link
                pass
            for _ in range(3):
                with tracer.trace("inner"):
                    pass
        inners = [t for t in tracer.recent() if t.op == "inner"]
        assert len(inners) == 3  # would be 0 without link-forced sampling
        assert root is not None


class TestSubtreeLinking:
    def test_delete_subtree_inner_traces_link_to_phase1(self):
        fs = make_hopsfs(num_namenodes=1, trace_sample_every=1)
        nn = fs.namenodes[0]
        nn.mkdirs("/big/x")
        nn.mkdirs("/big/y")
        for i in range(6):
            nn.create(f"/big/x/f{i}")
        assert nn.delete("/big", recursive=True)

        traces = nn.tracer.recent()
        root = next(t for t in traces if t.op == "delete_subtree_lock")
        inner_ops = {"subtree_quiesce", "subtree_delete_batch",
                     "delete_subtree_root"}
        inners = [t for t in traces if t.op in inner_ops]
        assert {t.op for t in inners} == inner_ops
        for trace in inners:
            assert trace.parent_id == root.trace_id, trace.op
        assert root.parent_id is None
        # one quiesce transaction per level group, not per directory —
        # /big (hashed children: a group of its own), then {x, y} — each
        # labelled with the directories it covered
        assert sorted(t.labels["dirs"] for t in inners
                      if t.op == "subtree_quiesce") == ["1", "2"]


# -- retries, sampling ---------------------------------------------------------


RETRY_TABLE = TableSchema(
    name="t", columns=("pk", "v"), primary_key=("pk",),
    partition_key=("pk",))


class TestRetriesAndSampling:
    def test_retried_transaction_yields_one_trace_with_attempts(self):
        cluster = NDBCluster(NDBConfig(num_datanodes=4, replication=2))
        cluster.create_table(RETRY_TABLE)
        session = cluster.session()
        tracer = Tracer(sample_every=1)
        attempts = []

        def fn(tx):
            attempts.append(len(attempts))
            tx.insert("t", {"pk": len(attempts), "v": 1})
            if len(attempts) == 1:
                raise TransactionAbortedError("induced conflict")
            return True

        with tracer.trace("flaky_op"):
            assert session.run(fn) is True

        trace, = tracer.recent()
        # attempt 0 is implicit (no span); the retry gets an explicit one
        executes = trace.spans("execute")
        assert [s.labels["attempt"] for s in executes] == ["1"]
        assert trace.execute_attempts == 2
        retry, = trace.events("tx_retry")
        assert retry.labels["reason"] == "TransactionAbortedError"
        # phases() sums the root's self time plus every retry attempt
        assert trace.phases()["execute"] == pytest.approx(
            trace.self_time + sum(s.self_time for s in executes))

    def test_per_op_round_robin_sampling(self):
        tracer = Tracer(sample_every=4)
        for _ in range(8):
            with tracer.trace("hot"):
                pass
        with tracer.trace("rare"):
            pass
        sampled = Counter(t.op for t in tracer.recent())
        # global every-Nth sampling would starve "rare"; per-op does not
        assert sampled["rare"] == 1
        assert sampled["hot"] == 2
        assert tracer.traces_started == 3
        assert tracer.traces_dropped == 6


# -- flight recorder -----------------------------------------------------------


class TestFlightRecorder:
    def test_failing_op_leaves_record_and_full_span_tree(self, tmp_path):
        fs = make_hopsfs(num_namenodes=1, trace_sample_every=1)
        nn = fs.namenodes[0]
        nn.mkdirs("/ok")
        with pytest.raises(FileNotFoundError_):
            nn.rename("/ok/missing", "/ok/dst")

        failed = [r for r in nn.flight.ops() if r.error]
        assert len(failed) == 1
        record = failed[0]
        assert record.op == "rename"
        assert record.error == "FileNotFoundError_"
        assert record.trace_id is not None
        kept = nn.flight.find_trace(record.trace_id)
        assert kept is not None and kept.error == "FileNotFoundError_"
        assert kept.spans("resolve")

        path = nn.flight.dump(str(tmp_path / "dump.json"), reason="test")
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        assert dump["recorder"] == nn.flight.name
        assert dump["reason"] == "test"
        ops = {r["op"]: r for r in dump["ops"]}
        assert ops["rename"]["error"] == "FileNotFoundError_"
        dumped = next(t for t in dump["traces"]
                      if t["trace_id"] == record.trace_id)
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node.get("children", ()):
                walk(child)

        walk(dumped["root"])
        assert {"rename", "resolve"} <= names

    def test_unsampled_ops_still_recorded_in_ring(self):
        fs = make_hopsfs(num_namenodes=1, trace_sample_every=0)
        nn = fs.namenodes[0]
        nn.mkdirs("/quiet")
        assert nn.tracer.recent() == []
        ops = [r.op for r in nn.flight.ops()]
        assert "mkdirs" in ops
        assert all(not r.to_dict()["in_flight"] for r in nn.flight.ops())

    def test_abort_storm_detection_and_auto_dump(self, tmp_path):
        recorder = FlightRecorder(name="stormy", storm_threshold=3,
                                  storm_window=8, dump_dir=str(tmp_path))

        def fail(n):
            for _ in range(n):
                rec = recorder.begin("op")
                recorder.end(rec, error=TransactionAbortedError("x"))

        def succeed(n):
            for _ in range(n):
                recorder.end(recorder.begin("op"))

        fail(2)
        assert recorder.storms == 0
        fail(1)
        assert recorder.storms == 1
        fail(5)  # still inside the same storm: no double counting
        assert recorder.storms == 1
        succeed(8)  # window fully healthy again: re-arm
        fail(3)
        assert recorder.storms == 2
        dumps = list(tmp_path.glob("flight-stormy-*.json"))
        assert len(dumps) == 2
        with open(dumps[0], encoding="utf-8") as fh:
            assert json.load(fh)["reason"] == "abort_storm"

    def test_storm_not_triggered_by_user_errors(self):
        recorder = FlightRecorder(name="calm", storm_threshold=2,
                                  storm_window=8)
        for _ in range(6):
            rec = recorder.begin("stat")
            recorder.end(rec, error=FileNotFoundError_("/x"))
        assert recorder.storms == 0

    def test_dump_all_skips_idle_recorders(self, tmp_path):
        idle = FlightRecorder(name="idle-recorder")
        busy = FlightRecorder(name="busy-recorder")
        busy.end(busy.begin("op"))
        paths = dump_all(str(tmp_path), reason="unit")
        assert any("busy-recorder" in p for p in paths)
        assert not any("idle-recorder" in p for p in paths)
        assert idle.dumps_written == 0


# -- timeline export + CLI -----------------------------------------------------


class TestExportAndCli:
    def make_shell(self):
        from repro.cli import HopsShell

        shell = HopsShell(cluster=make_hopsfs(num_namenodes=1,
                                              trace_sample_every=1))
        shell.execute("mkdir /cli")
        shell.execute("mkdir /cli/sub")
        shell.execute("touch /cli/sub/f")
        return shell

    def test_chrome_export_is_loadable_trace_event_json(self, tmp_path):
        shell = self.make_shell()
        path = str(tmp_path / "out.json")
        out = shell.execute(f"trace export --chrome {path}")
        assert "perfetto" in out
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert {"ph", "pid", "tid", "ts", "name"} <= set(event)
        phases = {e["ph"] for e in events}
        assert {"X", "i", "M"} <= phases  # spans, instants, metadata
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert any("mkdirs" in n for n in names)
        # instants keep the shard attribution in args
        instants = [e for e in events
                    if e["ph"] == "i" and e["name"].startswith("db.")]
        assert instants and all("shard" in e["args"] for e in instants)

    def test_export_single_trace_by_id(self, tmp_path):
        shell = self.make_shell()
        nn = shell.cluster.namenodes[0]
        trace = nn.tracer.recent(1)[0]
        path = str(tmp_path / "one.json")
        out = shell.execute(
            f"trace export --chrome {trace.trace_id} {path}")
        assert "1 trace(s)" in out
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0}
        assert "no trace 'zzzz'" in shell.execute(
            "trace export --chrome zzzz " + str(tmp_path / "no.json"))

    def test_trace_top_and_show(self):
        shell = self.make_shell()
        top = shell.execute("trace top 5")
        assert "trace_id" in top and "mkdirs" in top
        nn = shell.cluster.namenodes[0]
        trace = nn.tracer.recent(1)[0]
        shown = shell.execute(f"trace show {trace.trace_id}")
        assert trace.trace_id in shown
        assert "resolve" in shown
        assert "no trace" in shell.execute("trace show bogus")
        assert "usage error" in shell.execute("trace bogus")

    def test_trace_flight_command_dumps(self, tmp_path):
        shell = self.make_shell()
        out = shell.execute(f"trace flight {tmp_path}")
        assert "dumped" in out
        dumps = list(tmp_path.glob("flight-nn*.json"))
        assert dumps


# -- cross-process distributed tracing over RPC --------------------------------


class TestDistributedTracing:
    """Wire-level trace propagation: a traced op against a remote DAL
    produces ONE tree spanning the client and every server process."""

    def make_remote_fs(self, sample_every=1):
        import os

        from repro.dal import RemoteDriver
        from repro.rpc import NDBServer

        server = NDBServer(config=NDBConfig(num_datanodes=4, replication=2,
                                            lock_timeout=1.0))
        server.start()
        driver = RemoteDriver(server.host, server.port, timeout=10.0)
        config = HopsFSConfig(clock=ManualClock(),
                              trace_sample_every=sample_every)
        fs = HopsFSCluster(num_namenodes=1, num_datanodes=3,
                           config=config, driver=driver)
        return fs, driver, server, os.getpid()

    @staticmethod
    def spans_by_name(root, name):
        found = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.name == name:
                found.append(node)
            stack.extend(node.children or ())
        return found

    def test_traced_op_builds_single_cross_process_tree(self):
        fs, driver, server, pid = self.make_remote_fs()
        try:
            fs.namenodes[0].mkdirs("/dist/a")
        finally:
            driver.close()
            server.stop()
        traces = [t for t in fs.namenodes[0].tracer.recent()
                  if t.op == "mkdirs"]
        assert traces
        trace = traces[-1]
        server_spans = self.spans_by_name(trace, "rpc.server")
        assert server_spans, "no server-process spans grafted"
        for srv in server_spans:
            assert srv.labels["pid"] == str(pid)
            assert srv.labels["server"] == "ndb0"
        # >= 4 distinct client-observed RPC phases present in the tree
        phase_names = {"rpc.send", "rpc.wire", "rpc.server_queue"}
        present = {name for name in phase_names
                   if self.spans_by_name(trace, name)}
        assert present == phase_names
        assert server_spans  # the engine leg (4th phase) is rpc.server
        # engine spans recorded *inside the server* under the client tree
        assert self.spans_by_name(trace, "commit.participant")

    def test_phase_decomposition_recorded_and_aligned(self):
        fs, driver, server, _pid = self.make_remote_fs()
        try:
            fs.namenodes[0].mkdirs("/phases/x")
        finally:
            driver.close()
            server.stop()
        registry = driver.metrics  # the client side of the wire owns these
        phases = {}
        for h in registry.histograms():
            if h.name == "rpc_request_seconds":
                phases.setdefault(dict(h.labels)["phase"], 0)
                phases[dict(h.labels)["phase"]] += h.count
        assert set(phases) == {"send", "wire", "server_queue", "engine"}
        assert all(count > 0 for count in phases.values())
        # alignment invariant: every grafted server window sits inside
        # its parent rpc.<method> span's client-clock bounds
        for trace in fs.namenodes[0].tracer.recent():
            for srv in self.spans_by_name(trace, "rpc.server"):
                parent = next(
                    s for s in self._walk(trace)
                    if srv in (s.children or ()))
                assert parent.start <= srv.start
                assert srv.end <= parent.end + 1e-9
                for child in srv.children or ():
                    assert srv.start - 1e-9 <= child.start
                    assert (child.end or child.start) <= srv.end + 1e-9

    @staticmethod
    def _walk(root):
        stack = [root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children or ())

    def test_unsampled_ops_carry_no_trace_envelope(self):
        fs, driver, server, _pid = self.make_remote_fs(sample_every=0)
        try:
            fs.namenodes[0].mkdirs("/plain/a")
            registry = fs.namenodes[0].metrics
            assert not any(h.name == "rpc_request_seconds"
                           for h in registry.histograms())
            assert not fs.namenodes[0].tracer.recent()
        finally:
            driver.close()
            server.stop()

    def test_buffered_writes_and_one_way_ends_are_events_not_spans(self):
        from repro.dal import RemoteDriver
        from repro.metrics import MetricsRegistry
        from repro.rpc import NDBServer

        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=1)
        schema = TableSchema(name="p", columns=("k", "v"),
                             primary_key=("k",))
        with NDBServer(config=NDBConfig()) as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            driver.create_table(schema)
            with tracer.trace("batch") as trace:
                session = driver.session()

                def fn(tx):
                    for i in range(3):
                        tx.insert("p", {"k": i, "v": "x"})
                    tx.read("p", (0,))  # carries the three inserts
                    tx.write("p", {"k": 9, "v": "y"})  # rides the commit

                session.run(fn)
                session.run(lambda tx: tx.read("p", (9,)))  # read-only
            driver.close()
        # (the grafted server-side roots reuse the rpc.<method> names;
        # the client's own spans are the ones labelled with `writes`)
        spans = sorted(self._walk(trace), key=lambda s: s.start)
        # a buffered write sends nothing: a zero-length event, no rpc span
        for name, count in (("rpc.tx.insert", 3), ("rpc.tx.write", 1)):
            events = [s for s in spans if s.name == name]
            assert len(events) == count
            assert all(e.start == e.end and not e.children for e in events)
            assert all(e.labels.get("buffered") == "True" for e in events)
        # the carrying requests are real spans and say what they carried
        reads = [s for s in spans
                 if s.name == "rpc.tx.read" and "writes" in s.labels]
        assert [s.labels["writes"] for s in reads] == ["3", "0"]
        assert all(self.spans_by_name(s, "rpc.server") for s in reads)
        # one waited-for commit (the writer's, carrying the last write)
        # and one one-way commit (the reader's): span vs event
        [waited] = [s for s in spans
                    if s.name == "rpc.tx.commit" and "writes" in s.labels]
        assert waited.labels["writes"] == "1"
        assert self.spans_by_name(waited, "rpc.server")
        [one_way] = [s for s in spans if s.name == "rpc.tx.commit"
                     and s.labels.get("one_way") == "True"]
        assert one_way.start == one_way.end and not one_way.children
        assert one_way.start > waited.end  # the reader ran second

    def test_a_riding_commit_is_a_label_not_an_event_and_no_phase(self):
        """A warm read's one request says what it carried (``scans=N
        commit=true``); there is no one-way ``rpc.tx.commit`` event, no
        ``commit`` span, and the op observes no ``commit`` phase."""
        fs, driver, server, _pid = self.make_remote_fs()
        try:
            nn = fs.namenodes[0]
            nn.mkdirs("/ride/d")
            nn.create("/ride/d/f")
            nn.get_block_locations("/ride/d/f")  # warm: the next one rides
            before = {phase: nn.metrics.histogram(
                "hopsfs_phase_seconds", op="read", phase=phase).count
                for phase in ("resolve", "commit")}
            nn.get_block_locations("/ride/d/f")
            trace = nn.tracer.recent()[-1]
            after = {phase: nn.metrics.histogram(
                "hopsfs_phase_seconds", op="read", phase=phase).count
                for phase in before}
        finally:
            driver.close()
            server.stop()
        assert trace.name == "read"
        spans = list(self._walk(trace))
        [carrier] = [s for s in spans if s.name == "rpc.tx.read_batch"
                     and "writes" in s.labels]
        assert carrier.labels["scans"] == "2"
        assert carrier.labels["commit"] == "true"
        assert self.spans_by_name(carrier, "rpc.server")
        assert not [s for s in spans if s.name in ("rpc.tx.commit", "commit")]
        # one database round trip (seen on both sides of the wire)
        assert {(s.name, s.labels["table"]) for s in spans
                if s.name.startswith("db.")} == {
            ("db.batched_pk", "inodes+blocks+replicas")}
        assert after["resolve"] - before["resolve"] == 1
        assert after["commit"] == before["commit"]

    def test_multiprocess_chrome_export(self, tmp_path):
        from repro.metrics.traceexport import to_chrome

        fs, driver, server, pid = self.make_remote_fs()
        try:
            fs.namenodes[0].mkdirs("/chrome/a")
            fs.namenodes[0].create("/chrome/a/f")
        finally:
            driver.close()
            server.stop()
        traces = fs.namenodes[0].tracer.recent()
        doc = to_chrome(traces)
        events = doc["traceEvents"]
        client_pids = set(range(len(traces)))
        server_pids = {e["pid"] for e in events
                       if e.get("ph") != "M"} - client_pids
        assert server_pids, "server spans did not get their own pid"
        # server process metadata names the real process
        meta = {e["pid"]: e["args"]["name"] for e in events
                if e["ph"] == "M" and e["name"] == "process_name"}
        for spid in server_pids:
            assert meta[spid] == f"server ndb0 [pid {pid}]"
        # one real server process == one chrome pid, shared across traces
        assert len(server_pids) == 1
        # spans under a remote pid include engine work
        server_names = {e["name"] for e in events
                        if e["pid"] in server_pids and e.get("ph") != "M"}
        assert "rpc.server" in server_names
        assert any(n.startswith("rpc.tx.") for n in server_names)
        # timestamps are aligned into the client clock: every server
        # event falls inside the union of the client trace windows
        lo = round(min(t.start for t in traces) * 1e6, 3)
        hi = round(max(t.end for t in traces) * 1e6, 3)
        for e in events:
            if e["pid"] in server_pids and e.get("ph") == "X":
                assert lo - 1 <= e["ts"] <= hi + 1
