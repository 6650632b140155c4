"""Command line of the ledger benchmark.

Contract form (what ``BENCHMARK.json`` names; one workload, one JSON
result line last on stdout)::

    python3 benchmarks/ledger/__main__.py --workload spotify_embedded \
        --seed 1 --seconds 10 --trace 0

Ledger form (all workloads, untraced and traced, plus the layer probes,
into one artefact)::

    PYTHONPATH=src python -m benchmarks.ledger run --seed 1 --out ledger.json
    PYTHONPATH=src python -m benchmarks.ledger report ledger.json
    PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Optional

from benchmarks.ledger import probes, spans
from benchmarks.ledger.deploy import RUN_DIR
from benchmarks.ledger.metrics import NOT_MEASURED, catalogue
from benchmarks.ledger.runner import Sizing, run_workload
from benchmarks.ledger.workloads import WORKLOADS

SMOKE = Sizing(seconds=0.6, reps=1, scale=0.25)
TRACE_FILE = "ledger_trace.json"


def _log(message: str) -> None:
    print(f"ledger: {message}", file=sys.stderr, flush=True)


def _write_json(path: str, data: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def trace_document(workload: str, result: dict) -> dict:
    """The spans of the first repetition, names interned."""
    names: dict[str, int] = {}
    rows = result["spans"][0]
    origin = min(row[4] for row in rows)
    compact = [[sid, parent, op, names.setdefault(name, len(names)),
                start - origin, end - origin]
               for sid, parent, op, name, start, end in rows]
    return {
        "schema": "ledger-trace/1", "workload": workload,
        "fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
        "names": list(names),
        "layers": {name: spans.layer_of(name) for name in names},
        "op": "client index * 10^7 + position in that client's op stream",
        "note": "first repetition only; parent -1 = no parent on its "
                "thread (a root 'client' span, or namenode worker threads)",
        "spans": compact,
    }


def _layer_values(traced: dict, probed: dict[str, dict]) -> dict:
    values = dict(traced["metrics"])
    values.update({name: entry["value"] for name, entry in probed.items()})
    return values


# -- contract form -------------------------------------------------------------


def contract(args: argparse.Namespace) -> int:
    """One workload, traced or not; the result line goes last on stdout."""
    workload = WORKLOADS[args.workload]
    sizing = SMOKE if args.smoke else Sizing(seconds=args.seconds)
    result = run_workload(workload, args.seed, sizing, bool(args.trace), _log)
    extra: dict = {"detail": result["detail"], "problems": result["problems"]}
    if args.trace:
        probed = {} if args.no_probes else probes.run_probes()
        for name, entry in probed.items():
            if entry["value"] is None:
                _log(f"{name} not measured: {entry['reason']}")
        values = _layer_values(result, probed)
        listed = catalogue().per_layer
        extra.update(values=values, probes=probed, table=result["table"])
        trace_file = args.trace_file or str(RUN_DIR / TRACE_FILE)
        os.makedirs(os.path.dirname(trace_file) or ".", exist_ok=True)
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(trace_document(workload.name, result), fh,
                      separators=(",", ":"))
    else:
        values = result["metrics"]
        listed = catalogue().end_to_end
    line = {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": (NOT_MEASURED if values.get(m.name) is None
                               else values[m.name]), "unit": m.unit}
            for m in listed}}
    if args.result:
        _write_json(args.result, {"line": line, **extra})
    print(json.dumps(line))
    return 0 if result["correct"] else 1


# -- ledger form: run ----------------------------------------------------------


def _measure(workload: str, seed: int, trace: int, args: argparse.Namespace,
             *more: str) -> dict:
    """The contract form in a fresh process, as the driver runs it, so
    that peak memory and warm-up state belong to one workload."""
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as scratch:
        result_file = os.path.join(scratch, "result.json")
        command = [sys.executable, os.path.join(os.path.dirname(__file__),
                                                "__main__.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--result", result_file, *more]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        if not os.path.exists(result_file):
            raise RuntimeError(f"{workload}: measurement exited with "
                               f"{done.returncode} and no result")
        with open(result_file, encoding="utf-8") as fh:
            return json.load(fh)


def _summarise(lines: list[dict], segment_iqr: float) -> dict:
    """Median and interquartile range per metric over repeated runs."""
    out = {}
    for name in lines[0]["metrics"]:
        values = [line["metrics"][name]["value"] for line in lines]
        if len(values) > 1:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            iqr: Optional[float] = q3 - q1
        else:  # one run: only ops_per_s has a spread, that of its segments
            iqr = segment_iqr if name == "ops_per_s" else None
        out[name] = {"value": statistics.median(values), "iqr": iqr,
                     "runs": values}
    return out


def run(args: argparse.Namespace) -> int:
    sizing = SMOKE if args.smoke else Sizing(seconds=args.seconds)
    document: dict = {
        "schema": "ledger/1", "seed": args.seed, "smoke": args.smoke,
        "seconds": sizing.seconds, "repetitions": sizing.reps,
        "repeat": args.repeat,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    RUN_DIR.mkdir(exist_ok=True)
    out_dir = os.path.dirname(args.out) if args.out else str(RUN_DIR)
    for name, workload in WORKLOADS.items():
        plain = [_measure(name, args.seed + i, 0, args)
                 for i in range(args.repeat)]
        # the probes do not depend on the workload: once is enough
        traced = _measure(name, args.seed, 1, args, "--trace-file",
                          os.path.join(out_dir or ".",
                                       f"ledger_trace.{name}.json"),
                          *(["--no-probes"] if "probes" in document else []))
        document.setdefault("probes", traced["probes"])
        lines = [r["line"] for r in (*plain, traced)]
        attempted = sum(line["attempted"] for line in lines)
        failed = sum(line["failed"] for line in lines)
        per_layer = {k: v for k, v in traced["values"].items()
                     if k not in traced["probes"]}
        document["workloads"][name] = {
            "why": catalogue().why[name], "deploy": workload.deploy,
            "clients": workload.clients, "loop": "closed",
            "correct": all(line["correct"] for line in lines),
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "problems": [p for r in (*plain, traced) for p in r["problems"]],
            "end_to_end": _summarise([r["line"] for r in plain],
                                     plain[0]["detail"]["ops_per_s_iqr"]),
            "detail": plain[0]["detail"],
            "per_layer": per_layer,
            "op_layer_table": traced["table"],
            "layer_detail": traced["detail"],
        }
    if args.out:
        _write_json(args.out, document)
    report_document(document)
    return 0 if all(w["correct"]
                    for w in document["workloads"].values()) else 1


# -- ledger form: report -------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.0f}"


def report_document(document: dict) -> None:
    units = catalogue().units
    for name in WORKLOADS:  # files are written with sorted keys
        entry = document["workloads"][name]
        print(f"\n== {name} ({entry['deploy']}, {entry['clients']} "
              f"closed-loop client(s)) — {entry['why']}")
        print(f"   correct={entry['correct']} attempted={entry['attempted']} "
              f"failed_frac={entry['failed_frac']:.6f}")
        for metric, cell in entry["end_to_end"].items():
            spread = ("" if cell["iqr"] is None
                      else f"  (IQR {_fmt(cell['iqr'])})")
            print(f"   {metric:<16}{_fmt(cell['value']):>10} "
                  f"{units[metric]}{spread}")
        print(f"   host factor {_fmt(entry['detail']['host_factor'])} (times "
              "above are at the reference host speed: as measured / factor)")
        print("   -- per layer (spans and counts; times as measured)")
        for metric, value in entry["per_layer"].items():
            print(f"   {metric:<32}{_fmt(value):>10} {units[metric]}")
        layers = spans.LAYERS
        print("   -- op x layer, mean µs per op (traced half)")
        print(f"   {'op':<16}{'n':>7}{'total':>10}"
              + "".join(f"{layer:>12}" for layer in layers))
        for op, row in sorted(entry["op_layer_table"].items()):
            print(f"   {op:<16}{row['ops']:>7}{row['root_us']:>10.1f}"
                  + "".join(f"{row[layer]:>12.1f}" for layer in layers))
    print("\n== layer probes (the same for every workload)")
    for probe, entry in document["probes"].items():
        print(f"   {probe:<32}{_fmt(entry['value']):>10} {units[probe]}"
              + (f"  — {entry['reason']}" if entry["reason"] else ""))
    print("\n== where a warm stat goes")
    for name in ("spotify_embedded", "spotify_process"):
        row = document["workloads"][name]["op_layer_table"]["stat"]
        total = row["root_us"]
        dal = row["dal.read"] + row["dal.commit"] + row["dal.other"]
        print(f"   {name}: {total:.1f} µs (traced) = client "
              f"{100 * row['client'] / total:.1f}% + namenode "
              f"{100 * row['namenode'] / total:.1f}% + dal "
              f"{100 * dal / total:.1f}% of it")
    wire = document["probes"]["rpc.wire_us_per_rt"]["value"]
    print(f"   rpc.wire_us_per_rt = {_fmt(wire)} µs")


def report(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as fh:
        report_document(json.load(fh))
    return 0


# -- ledger form: compare ------------------------------------------------------


def compare_documents(a: dict, b: dict) -> tuple[list[str], bool]:
    """Rows of A against B per workload and end-to-end metric."""
    lines = [f"{'workload':<18}{'metric':<16}{'A':>11}{'B':>11}"
             f"{'B vs A':>10}{'bound':>8}{'spread':>9}  verdict"]
    worse = False
    for name in WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        # figures of different work do not compare
        same_work = wa["detail"]["timed_ops"] == wb["detail"]["timed_ops"]
        for metric in catalogue().end_to_end:
            ca = wa["end_to_end"][metric.name]
            cb = wb["end_to_end"][metric.name]
            va, vb = ca["value"], cb["value"]
            change = (vb - va) / va
            worse_by = change if metric.better == "lower" else -change
            recorded = [c["iqr"] / c["value"] for c in (ca, cb)
                        if c["iqr"] is not None]
            spread = max(recorded, default=None)
            if not same_work or (spread is not None
                                 and spread > metric.bound):
                verdict = "unresolved"
            elif worse_by > metric.bound:
                verdict = "worse"
                worse = True
            else:
                verdict = "ok"
            lines.append(
                f"{name:<18}{metric.name:<16}{_fmt(va):>11}{_fmt(vb):>11}"
                f"{100 * change:>+9.1f}%{100 * metric.bound:>7.0f}%"
                + (f"{'n/a':>9}" if spread is None
                   else f"{100 * spread:>8.1f}%") + f"  {verdict}")
        fa, fb = wa["failed_frac"], wb["failed_frac"]
        verdict = "worse" if fb > fa else "ok"
        worse = worse or fb > fa
        lines.append(f"{name:<18}{'failed_frac':<16}{fa:>11.6f}{fb:>11.6f}"
                     f"{'':>10}{'any':>8}{'':>9}  {verdict}")
        if not same_work:
            lines.append(f"{name:<18}A timed {wa['detail']['timed_ops']} ops "
                         f"and B {wb['detail']['timed_ops']}: unresolved")
    lines.append("B vs A = (B - A) / A; spread = the wider recorded "
                 "interquartile range / its median (over --repeat runs, or "
                 "over one run's segments for ops_per_s)")
    return lines, worse


def compare(args: argparse.Namespace) -> int:
    with open(args.a, encoding="utf-8") as fa, \
            open(args.b, encoding="utf-8") as fb:
        lines, worse = compare_documents(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 1 if worse else 0


# -- entry ---------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=catalogue().run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/50 of the work, one repetition")
    parser.add_argument("--result", default=None, metavar="FILE",
                        help="also write the result line, details and the "
                             "op x layer table here")
    parser.add_argument("--trace-file", default=None, metavar="FILE",
                        help=f"where --trace 1 writes its spans (default "
                             f"{TRACE_FILE} under .ledger_run/)")
    # `run` measures the layer probes with its first traced workload only
    parser.add_argument("--no-probes", action="store_true",
                        help=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command")
    run_cmd = commands.add_parser("run", help="all workloads into one file")
    run_cmd.add_argument("--seed", type=int, default=1)
    run_cmd.add_argument("--seconds", type=float,
                         default=catalogue().run_seconds)
    run_cmd.add_argument("--out", default=None, metavar="FILE")
    run_cmd.add_argument("--smoke", action="store_true",
                         help="about 1/50 of the work, one repetition")
    run_cmd.add_argument("--repeat", type=int, default=1,
                         help="untraced runs per workload (seed, seed+1, "
                              "...): records a spread for compare")
    report_cmd = commands.add_parser("report", help="print a run file")
    report_cmd.add_argument("file")
    compare_cmd = commands.add_parser("compare", help="A against B")
    compare_cmd.add_argument("a")
    compare_cmd.add_argument("b")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if args.workload is None:
            parser.error("give --workload, or one of: run, report, compare")
        return contract(args)
    return {"run": run, "report": report, "compare": compare}[args.command](
        args)
