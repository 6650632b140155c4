"""Smoke tests: the example scripts must run end-to-end.

`spotify_workload.py` is exercised with reduced sizes (its module
constants are patched) so the suite stays fast; the paper-scale run is
what the benchmarks do.
"""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "client still works" in out
    assert "/user/alice exists: False" in out


def test_subtree_operations(capsys):
    out = run_example("subtree_operations.py", capsys)
    assert "still connected" in out
    assert "re-submitted delete finished the job" in out


def test_failover_demo(capsys):
    out = run_example("failover_demo.py", capsys)
    assert "every operation succeeded" in out
    assert "standby promoted? True" in out


def test_metadata_analytics(capsys):
    out = run_example("metadata_analytics.py", capsys)
    assert "free-text search" in out
    assert "/warehouse/genomics/reads/sample-001.bam" in out


def test_spotify_workload_small(capsys, monkeypatch):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "spotify_workload_example", EXAMPLES / "spotify_workload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OPS", 120)
    monkeypatch.setattr(module, "FILES", 60)
    module.run_functional()
    out = capsys.readouterr().out
    assert "HopsFS (functional)" in out
    assert "HDFS   (functional)" in out
