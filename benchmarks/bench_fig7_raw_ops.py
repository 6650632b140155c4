"""Figure 7: raw throughput of individual file system operations.

The paper floods the namenodes with a single operation type and plots
stacked bars: each shaded box is the throughput gained by adding five
namenodes; the HDFS bar is the 5-server setup's maximum. Reproduced from
the measured access profiles via the saturation model: per-op throughput
= min(namenode ceiling, database ceiling, directory-lock ceiling).

Shape requirements: HopsFS beats HDFS for every operation; read-only
operations reach the highest rates; early namenode increments add full
steps, later ones shrink as the database ceiling flattens the bars.
"""

from benchmarks.conftest import fmt_ops, print_table
from repro.perfmodel.analytic import SaturationModel

#: figure-7 bar labels -> recorded profile names
FIG7_OPS = [
    ("MKDIR", "mkdirs"),
    ("CREATE FILE", "create"),
    ("APPEND FILE", "append"),
    ("READ FILE", "read"),
    ("LS DIR", "ls"),
    ("LS FILE", "ls_file"),
    ("CHMOD DIR", "set_permission_dir"),
    ("CHMOD FILE", "set_permission"),
    ("INFO DIR", "stat_dir"),
    ("INFO FILE", "stat"),
    ("SET REPL", "set_replication"),
    ("RENAME FILE", "rename"),
    ("DEL FILE", "delete"),
    ("CHOWN DIR", "set_owner_dir"),
    ("CHOWN FILE", "set_owner"),
]

_WORKLOAD_NAME = {
    "mkdirs": "mkdirs", "create": "create", "append": "append",
    "read": "read", "ls": "ls", "ls_file": "ls", "set_permission":
    "set_permission", "set_permission_dir": "set_permission",
    "stat": "stat", "stat_dir": "stat", "set_replication":
    "set_replication", "rename": "rename", "delete": "delete",
    "set_owner": "set_owner", "set_owner_dir": "set_owner",
}


def test_fig7(profiles, capsys, benchmark):
    model = SaturationModel()

    def build():
        table = {}
        for label, profile_name in FIG7_OPS:
            profile = profiles[profile_name]
            op = _WORKLOAD_NAME[profile_name]
            series = model.figure7({op: profile})[op]
            table[label] = series
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for label, series in sorted(table.items(),
                                key=lambda kv: kv[1]["hopsfs_max"]):
        increments = series["hopsfs"]
        first_step = increments[0]
        rows.append([
            label, fmt_ops(series["hopsfs_max"]), fmt_ops(series["hdfs"]),
            f"{series['hopsfs_max'] / series['hdfs']:.1f}x",
            fmt_ops(first_step),
        ])
    print_table(
        "Figure 7 — single-operation saturation throughput "
        "(60 namenodes / 12 NDB vs 5-server HDFS)",
        ["operation", "HopsFS max", "HDFS", "factor", "+5 NN step"],
        rows, capsys)

    for label, series in table.items():
        # HopsFS outperforms HDFS for all file system operations (§7.4)
        assert series["hopsfs_max"] > series["hdfs"], label
        # monotone non-decreasing in namenodes
        seq = series["hopsfs"]
        assert all(b >= a * 0.999
                   for a, b in zip(seq, seq[1:], strict=False)), label
    # read-only ops scale furthest; reads reach above 1M ops/s
    assert table["INFO FILE"]["hopsfs_max"] > 1e6
    assert table["READ FILE"]["hopsfs_max"] > 8e5
    # mutations cap lower than reads (write amplification + dir locks)
    assert (table["CREATE FILE"]["hopsfs_max"]
            < table["INFO FILE"]["hopsfs_max"])


def test_fig7_db_ceiling_flattens_bars(profiles, capsys, benchmark):
    """Later +5-NN increments shrink once the database saturates."""
    model = SaturationModel()

    def build():
        return model.figure7({"stat": profiles["stat"]})["stat"]["hopsfs"]

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    early_gain = series[1] - series[0]    # 5 -> 10 namenodes
    late_gain = series[-1] - series[-2]   # 55 -> 60 namenodes
    assert late_gain < early_gain * 0.6
