"""Work counts read through the program's public accessors.

``NameNode.metrics_snapshot()``, ``hint_cache.snapshot()``,
``HopsFSCluster.metrics_snapshot()`` and, behind an ndb-server,
``RemoteDriver.metrics_snapshot()``. A total the deployment does not
expose is ``None`` (with one client every available count is exact).
"""

from __future__ import annotations

from typing import Optional

from benchmarks.ledger.deploy import Deployment


def _total(snapshot: dict, section: str, name: str, field: str = "value",
           skip_label: Optional[tuple[str, str]] = None) -> Optional[float]:
    """Sum ``field`` over every label set of metric ``name``."""
    entries = [e for e in snapshot.get(section, ()) if e.get("name") == name]
    if skip_label is not None:
        key, value = skip_label
        entries = [e for e in entries if e.get("labels", {}).get(key) != value]
    if not entries:
        return None
    return float(sum(e.get(field, 0.0) for e in entries))


def totals(dep: Deployment) -> dict[str, Optional[float]]:
    """Running totals; subtract two calls to count a phase."""
    nn = dep.fs.namenodes[0]
    namenode = nn.metrics_snapshot()
    cluster = dep.fs.metrics_snapshot()
    hints = nn.hint_cache.snapshot()
    out: dict[str, Optional[float]] = {
        "round_trips": _total(namenode, "counters", "db_round_trips_total"),
        "rows_read": _total(namenode, "counters", "db_rows_read_total"),
        "hint_hits": float(hints["hits"]),
        "hint_misses": float(hints["misses"]),
        "recursive_resolves": _total(namenode, "gauges",
                                     "resolver_recursive_resolutions"),
        # absent counters mean "never incremented", i.e. zero retries
        "op_retries": (
            (_total(namenode, "counters", "fs_op_retries_total") or 0.0)
            + (_total(namenode, "counters", "fs_op_tx_retries_total") or 0.0)),
        "lock_waits": _total(cluster, "gauges", "ndb_lock_waits"),
        "flushes": _total(cluster, "gauges", "ndb_group_commit_flushes"),
        "commits": _total(cluster, "gauges", "ndb_group_commit_records"),
        "rpc_requests": 0.0,
    }
    if dep.remote is not None:
        server = dep.remote.metrics_snapshot(include_samples=False)
        # the snapshot request itself is not the workload's traffic
        out["rpc_requests"] = _total(server, "counters", "rpc_requests_total",
                                     skip_label=("method", "metrics"))
        out["flushes"] = _total(server, "histograms",
                                "ndb_group_commit_batch", field="count")
        out["commits"] = _total(server, "histograms",
                                "ndb_group_commit_batch", field="sum")
    return out


def _ratio(delta: dict, top: str, bottom: float,
           scale: float = 1.0) -> Optional[float]:
    if delta.get(top) is None or not bottom:
        return None
    return scale * delta[top] / bottom


def per_op(before: dict, after: dict, ops: int) -> dict[str, Optional[float]]:
    """The group-2 layer metrics over ``ops`` operations."""
    delta = {k: (None if before.get(k) is None or v is None
                 else v - before[k]) for k, v in after.items()}
    lookups = (delta["hint_hits"] or 0.0) + (delta["hint_misses"] or 0.0)
    return {
        "ndb.round_trips_per_op": _ratio(delta, "round_trips", ops),
        "ndb.rows_read_per_op": _ratio(delta, "rows_read", ops),
        "rpc.requests_per_op": _ratio(delta, "rpc_requests", ops),
        "hintcache.hit_rate": _ratio(delta, "hint_hits", lookups),
        "tx.recursive_resolves_per_kop": _ratio(delta, "recursive_resolves",
                                                ops, scale=1000.0),
        "ndb.lock_waits": delta["lock_waits"],
        "namenode.op_retries": delta["op_retries"],
        "ndb.flushes_per_commit": _ratio(delta, "flushes",
                                         delta.get("commits") or 0.0),
    }
