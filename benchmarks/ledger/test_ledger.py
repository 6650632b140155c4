"""Wiring checks for the ledger benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import cli, probes, spans
from benchmarks.ledger.metrics import catalogue
from benchmarks.ledger.runner import run_workload
from benchmarks.ledger.workloads import (
    WORKLOADS, Namespace, make_generator, tree_ops, tree_setup_ops)

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
END_TO_END, PER_LAYER = catalogue().end_to_end, catalogue().per_layer


@pytest.fixture(scope="module")
def smoke() -> dict:
    """Every workload once untraced and once traced, plus the probes."""
    out = {"probes": probes.run_probes()}
    for name, workload in WORKLOADS.items():
        out[name] = {
            "plain": run_workload(workload, 1, cli.SMOKE, traced=False),
            "traced": run_workload(workload, 1, cli.SMOKE, traced=True)}
    return out


def test_benchmark_json_names_the_workloads_and_wellformed_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_every_metric_is_reported_and_every_op_succeeds(smoke):
    for name in WORKLOADS:
        plain, traced = smoke[name]["plain"], smoke[name]["traced"]
        for result in (plain, traced):
            assert result["correct"], result["problems"]
            assert result["failed"] == 0 and result["attempted"] > 0
        assert set(plain["metrics"]) == {m.name for m in END_TO_END}
        assert all(v > 0 for v in plain["metrics"].values())
        layer = cli._layer_values(traced, smoke["probes"])
        assert set(layer) == {m.name for m in PER_LAYER}
        for op, row in traced["table"].items():
            assert row["ops"] > 0, op


def test_self_times_sum_to_the_root_span(smoke):
    for name in WORKLOADS:
        traced = smoke[name]["traced"]
        assert traced["detail"]["self_time_residual_pct"] < 1.0
        for row in traced["table"].values():
            layers = sum(row[layer] for layer in spans.LAYERS)
            assert layers == pytest.approx(row["root_us"], rel=0.01)


def test_one_seed_gives_identical_counts(smoke):
    exact = ("ndb.round_trips_per_op", "ndb.rows_read_per_op",
             "hintcache.hit_rate", "tx.recursive_resolves_per_kop",
             "dal.calls_per_op", "subtree.txs_per_kinode")
    for name in ("spotify_embedded", "mutate_embedded"):
        first = smoke[name]["traced"]
        again = run_workload(WORKLOADS[name], 1, cli.SMOKE, traced=True)
        assert again["attempted"] == first["attempted"]
        for metric in exact:
            assert again["metrics"][metric] == first["metrics"][metric]


def test_trace_document_round_trips(smoke):
    document = json.loads(json.dumps(cli.trace_document(
        "subtree_embedded", smoke["subtree_embedded"]["traced"])))
    rows = document["spans"]
    assert rows and all(len(row) == len(document["fields"]) for row in rows)
    assert {document["names"][row[3]] for row in rows} >= {
        "client", "dal.run", "dal.commit", "namenode.tx_body"}


def test_generator_is_seeded_and_tracks_its_model():
    workload = WORKLOADS["mutate_embedded"]
    first = make_generator(workload, 7, 0, 0, scale=0.25)
    again = make_generator(workload, 7, 0, 0, scale=0.25)
    other = make_generator(workload, 8, 0, 0, scale=0.25)
    ops = first.take(2000)
    assert ops == again.take(2000) != other.take(2000)
    replay = Namespace()
    for op in first.setup_ops + ops:
        replay.apply(op)
    assert replay.walk("/c0") == first.ns.walk("/c0")
    files = {p for p, is_dir in replay.walk("/c0").items() if not is_dir}
    assert files == set(first.files) == set(first.file_pos)
    # create and delete shares keep the namespace from drifting away
    start = workload.files_per_leaf * len(again.leaves)
    assert 0.5 * start < len(files) < 2.0 * start


def test_subtree_plan_builds_and_consumes_whole_trees():
    model = Namespace()
    for op in tree_setup_ops("/c0", 0):
        model.apply(op)
    assert len(model.walk("/c0")) == 1009
    for op in tree_ops("/c0", 0, seed=1):
        model.apply(op)
    assert model.walk("/c0") == {}


def test_a_probe_whose_target_is_gone_reports_null():
    def gone() -> float:
        raise AttributeError("module 'repro.rpc' has no attribute 'codec'")

    result = probes._guarded({"x": gone, "y": lambda: 1.5})
    assert result["x"]["value"] is None and "codec" in result["x"]["reason"]
    assert result["y"] == {"value": 1.5, "reason": None}


def _document(ops_per_s: float, iqr: float, failed_frac: float = 0.0,
              timed_ops: int = 1000) -> dict:
    cells = {m.name: {"value": 100.0, "iqr": 1.0} for m in END_TO_END}
    cells["ops_per_s"] = {"value": ops_per_s, "iqr": iqr}
    return {"workloads": {name: {"end_to_end": cells,
                                 "failed_frac": failed_frac,
                                 "detail": {"timed_ops": timed_ops}}
                          for name in WORKLOADS}}


def test_compare_says_ok_worse_or_unresolved():
    base = _document(1000.0, 10.0)
    bound = {m.name: m.bound for m in END_TO_END}["ops_per_s"]
    slower = 1000.0 * (1.0 - bound - 0.05)
    verdict = lambda doc: cli.compare_documents(base, doc)  # noqa: E731
    lines, worse = verdict(_document(1000.0 * (1.0 - bound / 2), 10.0))
    assert not worse and lines[2].endswith(" ok")
    lines, worse = verdict(_document(slower, 10.0))
    assert worse and lines[2].endswith("worse")
    lines, worse = verdict(_document(slower, slower * (bound + 0.05)))
    assert not worse and lines[2].endswith("unresolved")
    lines, worse = verdict(_document(slower, 10.0, timed_ops=900))
    assert not worse and lines[2].endswith("unresolved")
    lines, worse = verdict(_document(1000.0, 10.0, failed_frac=0.001))
    assert worse and lines[-2].endswith("worse")


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable if c == "python3" else c
               for c in BENCHMARK["command"]]
    done = subprocess.run(
        command + ["--workload", "spotify_embedded", "--seed", "1",
                   "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert "metrics" not in done.stdout
