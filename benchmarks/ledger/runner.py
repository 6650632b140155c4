"""Runs one workload: set-up, closed-loop timed phases, verification.

A run is ``reps`` independent repetitions. Each builds a fresh cluster
and namespace (its duration is one ``setup_s`` sample), warms up, runs a
fixed number of ops sized from its share of ``--seconds`` and verifies
the namespace against the model. The op count never depends on how fast
the ops ran, so one seed is the same work on every host and commit.
With ``traced`` the timed ops are split in two: an untraced half, then a
half with the boundary proxies of :mod:`spans` swapped in.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from repro.hopsfs.fsck import Fsck

from benchmarks.ledger import counts, spans
from benchmarks.ledger.deploy import DEPLOYS, Deployment
from benchmarks.ledger.workloads import (
    READ_KINDS, Namespace, Op, Workload, client_root,
    make_generator, planned_units, tree_ops, tree_setup_ops)

#: a repetition's timed ops are cut into this many equal segments (fewer
#: when it has fewer units); ops_per_s and cpu_us_per_op are medians over
#: the segments of all repetitions, so a burst of host noise that covers
#: a minority of them moves neither
SEGMENTS_PER_REP = 10
#: share of a repetition's planned ops run untimed before the clock starts
WARMUP_SHARE = 0.1
#: what :func:`host_spin_s` takes on the reference box in a quiet hour.
#: The sandbox's cores drift between 1x and 2x that within a minute, in
#: CPU time as in wall time, which no statistic of a 10 s run averages
#: out. So the spin runs at every segment boundary, and the end-to-end
#: time metrics are reported at the reference host speed: the times of a
#: repetition whose spins took 1.3x SPIN_REF_S on average are divided by
#: 1.3. The figures as measured, and the factors, stay in the artefact.
SPIN_REF_S = 0.005
#: attributes verified by stat after the run, per client
SPOT_CHECKS = 200


@dataclass(frozen=True)
class Sizing:
    seconds: float
    reps: int = 3
    #: shrinks the namespace (smoke runs)
    scale: float = 1.0


# -- executing one op ----------------------------------------------------------
#
# The timed call is separate from the check of what it returned, so a
# check that needs a second call (subtree set_*) is not part of latency.


def _check_set_attr(client: Any, _result: Any, op: Op) -> bool:
    kind, path, arg, expect = op
    if expect != "verify":
        return _result is None
    status = client.stat(path)
    if status is None:
        return False
    if kind == "set_owner":
        return (status.owner, status.group) == arg
    return status.perm == arg


def _is_true(_client: Any, result: Any, _op: Op) -> bool:
    return result is True


CALLS: dict[str, tuple[Callable, Callable]] = {
    "stat": (lambda c, p, a: c.stat(p),
             lambda c, r, op: r is not None and r.is_dir == op[3]),
    "read": (lambda c, p, a: c.get_block_locations(p),
             lambda c, r, op: r is not None and r.path == op[1]),
    "ls": (lambda c, p, a: c.list_status(p),
           lambda c, r, op: len(r.entries) == op[3]),
    "content_summary": (lambda c, p, a: c.content_summary(p),
                        lambda c, r, op: r.file_count == op[3]),
    "create": (lambda c, p, a: c.create(p, create_parents=False),
               lambda c, r, op: r is not None and not r.is_dir),
    "mkdirs": (lambda c, p, a: c.mkdirs(p), _is_true),
    "delete": (lambda c, p, a: c.delete(p, recursive=True), _is_true),
    "rename": (lambda c, p, a: c.rename(p, a), _is_true),
    "set_permission": (lambda c, p, a: c.set_permission(p, a),
                       _check_set_attr),
    "set_owner": (lambda c, p, a: c.set_owner(p, a[0], a[1]),
                  _check_set_attr),
    "set_replication": (lambda c, p, a: c.set_replication(p, a), _is_true),
}


@dataclass
class ClientRun:
    """One closed-loop client: its ops and what happened to them."""

    index: int
    name: str
    client: Any
    setup_ops: list[Op]
    ops: list[Op]
    pos: int = 0
    lat_ns: list[int] = field(default_factory=list)
    end_ns: list[int] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def host_spin_s() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i % 7
    return time.perf_counter() - start


def host_factor(*spins_s: float) -> float:
    """How much slower than the reference box the host ran (1.0 = same)."""
    return sum(spins_s) / len(spins_s) / SPIN_REF_S


def drive(run: ClientRun, stop_at: int, calls: dict,
          set_op: Optional[Callable] = None,
          mark: Optional[Callable[[int], None]] = None, every: int = 0) -> None:
    """Issue ops ``run.pos .. stop_at`` one after the other (closed loop).

    Anything that raises or returns the wrong thing is a failed op.
    ``mark(end_ns)`` is called after every ``every``-th op.
    """
    ops, lat, ends, client = run.ops, run.lat_ns, run.end_ns, run.client
    now = time.perf_counter_ns
    first = i = run.pos
    while i < stop_at:
        op = ops[i]
        call, check = calls[op[0]]
        if set_op is not None:
            set_op(run.index * 10_000_000 + i)
        start = now()
        try:
            result = call(client, op[1], op[2])
            end = now()
            ok = check(client, result, op)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            end = now()
            ok = False
            if len(run.errors) < 5:
                run.errors.append(f"{op[0]} {op[1]}: {exc!r}")
        lat.append(end - start)
        ends.append(end)
        if not ok:
            run.failed.append(i)
        i += 1
        if mark is not None and (i - first) % every == 0:
            mark(end)
    run.pos = i


class Segment(NamedTuple):
    """One slice of a timed phase, as measured."""

    ops_per_s: float
    cpu_us_per_op: float


@dataclass
class Phase:
    """One timed stretch over all clients."""

    wall_s: float
    segments: list[Segment]
    #: host factor over the phase: from the spins at its segment boundaries
    host: float
    #: per client: (first op index, one past the last)
    ranges: list[tuple[int, int]]

    @property
    def ops(self) -> int:
        return sum(hi - lo for lo, hi in self.ranges)


def run_phase(dep: Deployment, runs: list[ClientRun], segments: int,
              per_segment: int, calls: dict,
              set_op: Optional[Callable] = None) -> Phase:
    """Every client runs ``segments`` x ``per_segment`` ops.

    Client 0 marks the end of each of its segments: the time, the CPU
    clock, then a host spin. A segment's ops are the ones, of any client,
    that completed between two marks (the spin excluded).
    """
    firsts = [r.pos for r in runs]
    stops = [r.pos + segments * per_segment for r in runs]
    #: (segment end ns, CPU s; spin s; next segment's start ns, CPU s)
    marks: list[tuple[int, float, float, int, float]] = []

    def mark(at_ns: int) -> None:
        cpu = dep.cpu_seconds()
        spin = host_spin_s()
        marks.append((at_ns, cpu, spin, time.perf_counter_ns(),
                      dep.cpu_seconds()))

    gate = threading.Barrier(len(runs))

    def body(run: ClientRun, stop_at: int) -> None:
        gate.wait()
        if run.index == 0:
            mark(0)
            drive(run, stop_at, calls, set_op, mark, per_segment)
        else:
            drive(run, stop_at, calls, set_op)

    threads = [threading.Thread(target=body, args=(r, s))
               for r, s in zip(runs[1:], stops[1:])]
    for t in threads:
        t.start()
    body(runs[0], stops[0])
    for t in threads:
        t.join()
    wall_s = (time.perf_counter_ns() - marks[0][3]) / 1e9
    ranges = [(lo, r.pos) for lo, r in zip(firsts, runs)]
    ends = sorted(t for run, (lo, hi) in zip(runs, ranges)
                  for t in run.end_ns[lo:hi])
    cut: list[Segment] = []
    for (_, _, _, t0, cpu0), (t1, cpu1, _, _, _) in zip(marks, marks[1:]):
        done = bisect.bisect_right(ends, t1) - bisect.bisect_right(ends, t0)
        cut.append(Segment(done / ((t1 - t0) / 1e9),
                           (cpu1 - cpu0) * 1e6 / done))
    return Phase(wall_s, cut, host_factor(*(m[2] for m in marks)), ranges)


# -- verification --------------------------------------------------------------


def _walk(client: Any, root: str) -> dict[str, bool]:
    found: dict[str, bool] = {}
    stack = [root]
    while stack:
        for entry in client.list_status(stack.pop()).entries:
            found[entry.path] = entry.is_dir
            if entry.is_dir:
                stack.append(entry.path)
    return found


def verify(dep: Deployment, runs: list[ClientRun]) -> list[str]:
    """Compare the file system with the model of the executed ops."""
    problems: list[str] = []
    for run in runs:
        model = Namespace()
        for op in run.setup_ops:
            model.apply(op)
        for op in run.ops[:run.pos]:
            model.apply(op)
        root = client_root(run.index)
        want, got = model.walk(root), _walk(run.client, root)
        if want != got:
            missing = sorted(set(want) - set(got))[:3]
            extra = sorted(set(got) - set(want))[:3]
            problems.append(f"{root}: namespace differs from the model "
                            f"(missing {missing}, unexpected {extra})")
        paths = sorted(model.attrs)
        for path in paths[::max(1, len(paths) // SPOT_CHECKS)]:
            status = run.client.stat(path)
            for key, value in model.attrs[path].items():
                if status is None or getattr(status, key) != value:
                    problems.append(f"{path}: {key} is not {value!r}")
    report = Fsck(dep.fs.namenodes[0]).run()
    if not report.healthy:
        problems.append(f"fsck: {report.by_check()}")
    return problems


# -- one repetition ------------------------------------------------------------


def plan_sizes(workload: Workload, sizing: Sizing,
               traced: bool) -> tuple[int, int, int]:
    """Per client and repetition: (warm-up ops, segments, ops a segment)."""
    units = planned_units(workload, sizing.seconds / sizing.reps)
    # a traced repetition needs a segment for each of its two halves
    segments = max(2 if traced else 1, min(SEGMENTS_PER_REP, units))
    per_segment = max(1, units // segments) * workload.unit
    warm = max(1, round(units * WARMUP_SHARE)) * workload.unit
    return warm, segments, per_segment


def _plan_client(workload: Workload, seed: int, rep: int, index: int,
                 n_ops: int, scale: float, dep: Deployment) -> ClientRun:
    """Set-up ops and the op stream of one client."""
    name = f"c{index}"
    generator = make_generator(workload, seed, rep, index, scale)
    if generator is not None:
        setup_ops = generator.setup_ops
        ops = generator.take(n_ops)
    else:
        root = client_root(index)
        trees = range(n_ops // workload.unit)
        setup_ops = [op for k in trees for op in tree_setup_ops(root, k)]
        ops = [op for k in trees for op in tree_ops(root, k, seed + rep)]
    return ClientRun(index, name, dep.fs.client(name), setup_ops, ops)


def _build(runs: list[ClientRun]) -> None:
    """Create every client's namespace through the client itself."""
    def body(run: ClientRun) -> None:
        builder = ClientRun(run.index, run.name, run.client, [],
                            run.setup_ops)
        drive(builder, len(builder.ops), CALLS)
        run.failed.extend(builder.failed)
        run.errors.extend(builder.errors)

    threads = [threading.Thread(target=body, args=(r,)) for r in runs[1:]]
    for t in threads:
        t.start()
    body(runs[0])
    for t in threads:
        t.join()
    broken = [e for r in runs for e in r.errors]
    if any(r.failed for r in runs):
        raise RuntimeError(f"namespace set-up failed: {broken}")


def run_rep(workload: Workload, seed: int, rep: int, sizing: Sizing,
            traced: bool) -> dict:
    warm, segments, per_segment = plan_sizes(workload, sizing, traced)
    n_ops = warm + segments * per_segment
    spin = host_spin_s()
    setup_start = time.perf_counter()
    with DEPLOYS[workload.deploy]() as dep:
        runs = [_plan_client(workload, seed, rep, i, n_ops, sizing.scale, dep)
                for i in range(workload.clients)]
        _build(runs)
        out: dict = {"setup_s": time.perf_counter() - setup_start}
        out["setup_host"] = host_factor(spin, host_spin_s())
        gc.collect()
        gc.freeze()
        try:
            run_phase(dep, runs, 1, warm, CALLS)
            if not traced:
                out["untraced"] = run_phase(dep, runs, segments, per_segment,
                                            CALLS)
            else:
                before = counts.totals(dep)
                retried = sum(r.client.operations_retried for r in runs)
                out["untraced"] = run_phase(
                    dep, runs, segments - segments // 2, per_segment, CALLS)
                after = counts.totals(dep)
                after["op_retries"] += (
                    sum(r.client.operations_retried for r in runs) - retried)
                out["counts"] = counts.per_op(before, after,
                                              out["untraced"].ops)
                recorder = spans.Recorder(single_client=len(runs) == 1)
                with spans.Tracing(dep.fs, recorder):
                    for r in runs:  # fresh clients pick the proxies up
                        r.client = dep.fs.client(r.name)
                    traced_calls = {
                        kind: (recorder.wrap(spans.ROOT_SPAN, call), check)
                        for kind, (call, check) in CALLS.items()}
                    out["traced"] = run_phase(
                        dep, runs, segments // 2, per_segment, traced_calls,
                        recorder.set_op)
                for r in runs:
                    r.client = dep.fs.client(r.name)
                out["spans"] = recorder.spans
            out["problems"] = verify(dep, runs)
            out["peak_rss_mb"] = dep.peak_rss_mb()
        finally:
            gc.unfreeze()
    out["runs"] = runs
    return out


# -- combining repetitions into metrics ----------------------------------------


def percentile(ordered: list, p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _latencies(rep: dict) -> tuple[list[int], list[int]]:
    """Ascending read-class and write-class latencies (ns) of the
    repetition's untraced phase."""
    reads, writes = [], []
    for run, (lo, hi) in zip(rep["runs"], rep["untraced"].ranges):
        for op, ns in zip(run.ops[lo:hi], run.lat_ns[lo:hi]):
            (reads if op[0] in READ_KINDS else writes).append(ns)
    reads.sort()
    writes.sort()
    return reads, writes


def end_to_end(reps: list[dict]) -> dict:
    """Every figure is a median, over repetitions or over their segments,
    of times brought to the reference host speed (see SPIN_REF_S)."""
    hosts = [rep["untraced"].host for rep in reps]
    latencies = [_latencies(rep) for rep in reps]
    read_p50 = [percentile(reads, 50) / 1e3 for reads, _ in latencies]
    write_p50 = [percentile(writes, 50) / 1e3 for _, writes in latencies]
    rates = [seg.ops_per_s * rep["untraced"].host
             for rep in reps for seg in rep["untraced"].segments]
    quartiles = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3

    def at_reference(times: list[float], host: list[float]) -> float:
        return statistics.median(t / h for t, h in zip(times, host))

    return {
        "metrics": {
            "setup_s": at_reference([rep["setup_s"] for rep in reps],
                                    [rep["setup_host"] for rep in reps]),
            "ops_per_s": statistics.median(rates),
            "cpu_us_per_op": statistics.median(
                seg.cpu_us_per_op / rep["untraced"].host
                for rep in reps for seg in rep["untraced"].segments),
            "read_p50_us": at_reference(read_p50, hosts),
            "write_p50_us": at_reference(write_p50, hosts),
            "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
        },
        "detail": {
            "timed_ops": sum(rep["untraced"].ops for rep in reps),
            "timed_wall_s": sum(rep["untraced"].wall_s for rep in reps),
            "ops_per_s_iqr": quartiles[2] - quartiles[0],
            "host_factor": statistics.median(hosts),
            "as_measured": {
                "setup_s": [rep["setup_s"] for rep in reps],
                "setup_host_factor": [rep["setup_host"] for rep in reps],
                "host_factor_per_rep": hosts,
                "segments_per_rep": [
                    [seg._asdict() for seg in rep["untraced"].segments]
                    for rep in reps],
                "read_p50_us_per_rep": read_p50,
                "write_p50_us_per_rep": write_p50,
            },
            "read_samples_per_rep": [len(reads) for reads, _ in latencies],
            "write_samples_per_rep": [len(writes) for _, writes in latencies],
        },
    }


def tail_us(ordered: list[int], p: Optional[int]) -> Optional[float]:
    """Percentile ``p`` in µs, if at least 10 samples lie beyond it."""
    if p is None or len(ordered) * (100 - p) < 1000:
        return None
    return percentile(ordered, p) / 1e3


def _mean(values: list) -> Optional[float]:
    return sum(values) / len(values) if values else None


def layer_ledger(workload: Workload, reps: list[dict]) -> dict:
    """Group 1 and 2 layer metrics plus the op x layer table."""
    by_class: dict[str, dict[str, list]] = {
        c: {layer: [] for layer in spans.LAYERS} for c in ("read", "write")}
    table: dict[str, dict] = {}
    dal_calls, txs, offthread, n_ops = 0, 0, 0, 0
    root_ns = self_ns = 0
    for rep in reps:
        kinds = {run.index * 10_000_000 + i: run.ops[i][0]
                 for run, (lo, hi) in zip(rep["runs"], rep["traced"].ranges)
                 for i in range(lo, hi)}
        for op_id, entry in spans.self_times(rep["spans"]).items():
            dal_calls += entry["dal_calls"]
            txs += entry["txs"]
            offthread += entry["offthread_ns"]
            kind = kinds.get(op_id)
            if kind is None:
                # worker-thread spans with two clients: no op to charge
                continue
            n_ops += 1
            root_ns += entry["root_ns"]
            self_ns += sum(entry["self_ns"].values())
            row = table.setdefault(kind, {"ops": 0, "root_us": 0.0, **{
                layer: 0.0 for layer in spans.LAYERS}, "offthread_us": 0.0})
            row["ops"] += 1
            row["root_us"] += entry["root_ns"] / 1e3
            row["offthread_us"] += entry["offthread_ns"] / 1e3
            cls = "read" if kind in READ_KINDS else "write"
            for layer, ns in entry["self_ns"].items():
                row[layer] += ns / 1e3
                by_class[cls][layer].append(ns / 1e3)
    for row in table.values():
        for key in row:
            if key != "ops":
                row[key] /= row["ops"]
    metrics: dict[str, Optional[float]] = {}
    for cls, layers in by_class.items():
        for layer, values in layers.items():
            name = (f"{layer}.self_us.{cls}" if "." not in layer
                    else f"{layer}_us.{cls}")
            metrics[name] = _mean(values)
    metrics["dal.offthread_us_per_op"] = offthread / 1e3 / n_ops
    metrics["dal.calls_per_op"] = dal_calls / n_ops
    metrics["subtree.txs_per_kinode"] = (
        1000.0 * txs / (n_ops * workload.inodes_per_op))
    overheads = []
    for rep in reps:
        plain, with_spans = (
            rep[half].host * statistics.median(
                seg.ops_per_s for seg in rep[half].segments)
            for half in ("untraced", "traced"))
        overheads.append((plain / with_spans - 1.0) * 100.0)
    metrics["trace.overhead_pct"] = statistics.median(overheads)
    metrics["host.spin_us"] = SPIN_REF_S * 1e6 * statistics.median(
        rep[half].host for rep in reps for half in ("untraced", "traced"))
    # tails come from the untraced halves of all repetitions, pooled so
    # that enough samples lie beyond the percentile
    latencies = [_latencies(rep) for rep in reps]
    pooled = [sorted(ns for pair in latencies for ns in pair[cls])
              for cls in (0, 1)]
    for name, ordered, p in zip(("read_tail_us", "write_tail_us"), pooled,
                                workload.tails):
        metrics[name] = tail_us(ordered, p)
    for name in reps[0]["counts"]:
        values = [rep["counts"][name] for rep in reps]
        metrics[name] = (None if any(v is None for v in values)
                         else _mean(values))
    return {
        "metrics": metrics,
        "table": table,
        "detail": {
            "traced_ops": n_ops,
            "read_tail_samples": len(pooled[0]),
            "write_tail_samples": len(pooled[1]),
            "spans": sum(len(rep["spans"]) for rep in reps),
            #: how far the self times are from summing to the root spans
            "self_time_residual_pct": abs(self_ns - root_ns) * 100.0 / root_ns,
        },
    }


def run_workload(workload: Workload, seed: int, sizing: Sizing,
                 traced: bool, log: Callable[[str], None] = lambda _m: None
                 ) -> dict:
    """Run every repetition; returns metrics plus correctness."""
    reps = []
    for rep in range(sizing.reps):
        reps.append(run_rep(workload, seed, rep, sizing, traced))
        log(f"{workload.name} rep {rep}: setup {reps[-1]['setup_s']:.2f}s, "
            f"{reps[-1]['untraced'].ops} ops in "
            f"{reps[-1]['untraced'].wall_s:.2f}s")
    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        for run in rep["runs"]:  # warm-up ops count: none may fail
            attempted += run.pos
            failed += len(run.failed)
            problems += run.errors
        problems += rep["problems"]
    result = {
        "workload": workload.name, "seed": seed, "traced": traced,
        "attempted": attempted, "failed": failed, "problems": problems,
        "correct": failed == 0 and not problems,
    }
    if traced:
        result.update(layer_ledger(workload, reps))
        result["spans"] = [rep["spans"] for rep in reps]
    else:
        result.update(end_to_end(reps))
    for problem in problems:
        print(f"ledger: {workload.name}: {problem}", file=sys.stderr)
    return result
