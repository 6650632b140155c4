"""Tests for the command shell (repro.cli)."""

import pytest

from repro.cli import HopsShell
from repro.ndb import NDBConfig
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.util.clock import ManualClock


@pytest.fixture(scope="module")
def shell():
    cluster = HopsFSCluster(
        num_namenodes=2, num_datanodes=3,
        config=HopsFSConfig(clock=ManualClock()),
        ndb_config=NDBConfig(num_datanodes=4, replication=2,
                             lock_timeout=0.5))
    return HopsShell(cluster)


def test_mkdir_and_ls(shell):
    assert "created" in shell.execute("mkdir /cli-demo")
    assert "/cli-demo" in shell.execute("ls /")


def test_put_cat_roundtrip(shell):
    shell.execute("put /cli-demo/hello.txt hello from the shell")
    assert shell.execute("cat /cli-demo/hello.txt") == "hello from the shell"


def test_stat(shell):
    shell.execute("touch /cli-demo/empty")
    output = shell.execute("stat /cli-demo/empty")
    assert "file" in output and "size=0" in output


def test_mv_and_rm(shell):
    shell.execute("touch /cli-demo/a")
    assert "moved" in shell.execute("mv /cli-demo/a /cli-demo/b")
    assert "removed" in shell.execute("rm /cli-demo/b")
    assert "no such path" in shell.execute("rm /cli-demo/b")


def test_rm_recursive(shell):
    shell.execute("mkdir /cli-rec/sub")
    shell.execute("touch /cli-rec/sub/f")
    assert "removed" in shell.execute("rm -r /cli-rec")


def test_chmod_chown(shell):
    shell.execute("touch /cli-demo/perm")
    assert "640" in shell.execute("chmod 640 /cli-demo/perm")
    assert "alice:staff" in shell.execute("chown alice:staff /cli-demo/perm")
    output = shell.execute("stat /cli-demo/perm")
    assert "perm=640" in output and "owner=alice" in output


def test_du_and_quota(shell):
    shell.execute("mkdir /cli-quota")
    shell.execute("quota 100 /cli-quota")
    output = shell.execute("du /cli-quota")
    assert "ns quota 100" in output


def test_xattr(shell):
    shell.execute("touch /cli-demo/x")
    shell.execute("xattr set /cli-demo/x user.team storage")
    assert "user.team=storage" in shell.execute("xattr get /cli-demo/x")


def test_fsck_healthy(shell):
    assert shell.execute("fsck").startswith("HEALTHY")


def test_report(shell):
    output = shell.execute("report")
    assert "namenodes" in output and "inodes" in output


def test_kill_nn_and_continue(shell):
    assert "killed namenode" in shell.execute("kill-nn")
    assert "refusing" in shell.execute("kill-nn")
    shell.execute("touch /cli-demo/after-kill")
    assert "after-kill" in shell.execute("ls /cli-demo")


def test_tick(shell):
    assert "housekeeping" in shell.execute("tick")


def test_errors_are_text_not_exceptions(shell):
    assert shell.execute("cat /no/such/file").startswith("error:")
    assert shell.execute("frobnicate").startswith("error: unknown")
    assert shell.execute("chmod zzz /x").startswith("usage error")
    assert shell.execute("") == ""


def test_help(shell):
    output = shell.execute("help")
    for command in ("ls", "fsck", "xattr", "report"):
        assert command in output


def test_decommission_command(shell):
    shell.execute("put /cli-demo/decom-file some data here")
    dn_id = shell.cluster.datanodes[0].dn_id
    output = shell.execute(f"decommission {dn_id}")
    assert "retired" in output
    assert shell.execute("cat /cli-demo/decom-file") == "some data here"


def test_faults_fired_in_the_shell_show_in_its_metrics(shell, tmp_path):
    """The shell's injector counts on a live registry (the driver's), so
    a firing is in the cluster view — not on a discarded merge."""
    import json

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "cli", "seed": 1, "specs": [
        {"site": "hopsfs.op", "action": "delay", "delay": 0.0,
         "max_fires": 1}]}))
    try:
        assert "installed" in shell.execute(f"faults load {plan}")
        shell.execute("ls /")
        assert "hopsfs.op: 1" in shell.execute("faults status")
        assert ('faults_fired_total{action="delay",site="hopsfs.op"} 1'
                in shell.execute("metrics prom"))
    finally:
        shell.execute("faults clear")
