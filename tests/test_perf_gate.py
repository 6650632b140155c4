"""Unit tests for the CI perf-regression gate itself.

The gate is what stands between a hot-path regression and a green CI
run, so its comparison logic gets the same treatment as product code:
passes at baseline, fails *naming the regressed cell*, and copes with a
missing/new baseline file without a traceback. Benchmarks themselves
are stubbed — these tests never run the real workloads.
"""

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks"))

import perf_gate  # noqa: E402


ENGINE_BASELINE = {
    "kind": "engine",
    "ops_per_second": {
        "parallel": {"1": 500.0, "2": 930.0, "4": 1430.0, "8": 1450.0},
    },
}

HOTPATH_BASELINE = {
    "kind": "hotpath",
    "ops_per_second": {
        "embedded-optimized": {"8": 3300.0},
        "process-unix": {"8": 1180.0},
    },
    "round_trips_per_stat": {
        "embedded-optimized": 1.0,
        "process-unix": 1.0,
    },
}

TRACING_BASELINE = {
    "kind": "tracing",
    "overhead_pct_full_tracing": 12.7,
    "overhead_pct_sampled_64": 0.4,
}

DIST_TRACING_BASELINE = {
    "kind": "disttracing",
    "wire_overhead_pct_full_tracing": 53.2,
    "wire_overhead_pct_sampled_64": 2.2,
}

TRACING_MARGINS = {"overhead_pct_full_tracing": 5.0,
                   "overhead_pct_sampled_64": 5.0}


def test_baseline_kind_is_read_not_inferred():
    for kind in perf_gate.KINDS:
        assert perf_gate.baseline_kind({"kind": kind}) == kind
    with pytest.raises(SystemExit, match="None"):  # shape alone: no kind
        perf_gate.baseline_kind({"scaling_8_to_16": 1.5})
    with pytest.raises(SystemExit, match="'ledger'"):
        perf_gate.baseline_kind({"kind": "ledger"})


def test_compare_passes_at_baseline():
    rows, failures = perf_gate.compare(
        "engine", ENGINE_BASELINE, copy.deepcopy(ENGINE_BASELINE), 0.15)
    assert failures == []
    assert len(rows) == 4 and all(r["ok"] for r in rows)


def test_compare_fails_naming_the_regressed_cell():
    current = copy.deepcopy(ENGINE_BASELINE)
    current["ops_per_second"]["parallel"]["8"] = 1000.0  # -31%
    rows, failures = perf_gate.compare(
        "engine", ENGINE_BASELINE, current, 0.15)
    assert len(failures) == 1
    assert "parallel@8t" in failures[0]
    assert "1450.0 -> 1000.0" in failures[0]
    assert sum(not r["ok"] for r in rows) == 1


def test_compare_tolerates_noise_within_tolerance():
    current = copy.deepcopy(ENGINE_BASELINE)
    current["ops_per_second"]["parallel"]["8"] = 1300.0  # -10%
    _rows, failures = perf_gate.compare(
        "engine", ENGINE_BASELINE, current, 0.15)
    assert failures == []


def test_compare_flags_missing_cell():
    current = copy.deepcopy(ENGINE_BASELINE)
    del current["ops_per_second"]["parallel"]["8"]
    _rows, failures = perf_gate.compare(
        "engine", ENGINE_BASELINE, current, 0.15)
    assert failures == ["engine: parallel@8t missing from the "
                        "current run"]


def test_round_trip_gate_is_exact():
    current = copy.deepcopy(HOTPATH_BASELINE)
    assert perf_gate.compare_round_trips(
        "hotpath", HOTPATH_BASELINE, current) == []
    current["round_trips_per_stat"]["embedded-optimized"] = 2.0
    failures = perf_gate.compare_round_trips(
        "hotpath", HOTPATH_BASELINE, current)
    assert len(failures) == 1
    assert "round_trips_per_stat[embedded-optimized]" in failures[0]
    assert "1.00 -> 2.00" in failures[0]


def test_tracing_gate_uses_margin_in_points():
    current = {"overhead_pct_full_tracing": 15.0,   # +2.3 pts: within 5
               "overhead_pct_sampled_64": 1.0}
    rows, failures = perf_gate.compare_tracing(
        "tracing", TRACING_BASELINE, current, TRACING_MARGINS)
    assert failures == [] and all(r["ok"] for r in rows)
    current = {"overhead_pct_full_tracing": 19.9,   # +7.2 pts: over
               "overhead_pct_sampled_64": 0.2}
    _rows, failures = perf_gate.compare_tracing(
        "tracing", TRACING_BASELINE, current, TRACING_MARGINS)
    assert len(failures) == 1
    assert "overhead_pct_full_tracing" in failures[0]


def test_distributed_tracing_gate_margins_per_key():
    # the full-sampling wire cell gets 3x the margin, the production
    # 1-in-64 cell keeps the tight one — a sampled regression must fail
    # even when the (noisier) full cell is allowed a bigger swing
    margins = {"wire_overhead_pct_full_tracing": 15.0,
               "wire_overhead_pct_sampled_64": 5.0}
    current = {"wire_overhead_pct_full_tracing": 65.0,  # +11.8: within 15
               "wire_overhead_pct_sampled_64": 3.0}     # +0.8: within 5
    rows, failures = perf_gate.compare_tracing(
        "disttracing", DIST_TRACING_BASELINE, current, margins)
    assert failures == [] and all(r["ok"] for r in rows)
    current = {"wire_overhead_pct_full_tracing": 55.0,
               "wire_overhead_pct_sampled_64": 9.9}     # +7.7: over 5
    _rows, failures = perf_gate.compare_tracing(
        "disttracing", DIST_TRACING_BASELINE, current, margins)
    assert len(failures) == 1
    assert "wire_overhead_pct_sampled_64" in failures[0]


def test_main_handles_missing_baseline_cleanly(tmp_path, capsys):
    missing = str(tmp_path / "BENCH_not_yet_committed.json")
    assert perf_gate.main([missing]) == 2
    out = capsys.readouterr().out
    assert "baseline not found" in out
    assert "missing baseline" in out


def test_main_end_to_end_with_stubbed_benchmark(tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "BENCH_engine_parallelism.json"
    path.write_text(json.dumps(ENGINE_BASELINE))

    current = copy.deepcopy(ENGINE_BASELINE)
    monkeypatch.setattr(perf_gate, "run_current",
                        lambda kind, ops: copy.deepcopy(current))
    report = tmp_path / "gate.json"
    assert perf_gate.main([str(path), "--runs", "1",
                           "--json", str(report)]) == 0
    assert json.loads(report.read_text())["passed"] is True

    current["ops_per_second"]["parallel"]["1"] = 100.0  # -80%
    assert perf_gate.main([str(path), "--runs", "1",
                           "--json", str(report)]) == 1
    out = capsys.readouterr().out
    assert "parallel@1t regressed" in out
    gate = json.loads(report.read_text())
    assert gate["passed"] is False
    assert any("parallel@1t" in f for f in gate["failures"])
