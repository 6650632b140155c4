"""Direct probes of each layer's public functions.

Fixed inputs, one thread; each figure is the median of ``BATCHES``
batches. A probe whose target has gone (an import, attribute or
signature that a later change removed) reports ``None`` and the reason
instead of stopping the run.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

from benchmarks.ledger import deploy

BATCHES = 7
PROBE_TABLE = "ledger_probe"
GROUPS, ROWS_PER_GROUP = 64, 16
DEEP_PATH = "/probe/a/b/c/d/e/f"  # depth 7

_GONE = (ImportError, AttributeError, TypeError, KeyError, NotImplementedError)


def _median_per_call(batch: Callable[[], float], calls: int) -> float:
    """Median over batches of (seconds a batch reports) / calls."""
    batch()  # warm
    return statistics.median(batch() for _ in range(BATCHES)) / calls


def _guarded(probes: dict[str, Callable[[], float]]) -> dict[str, dict]:
    out = {}
    for name, probe in probes.items():
        try:
            out[name] = {"value": probe(), "reason": None}
        except _GONE as exc:
            out[name] = {"value": None,
                         "reason": f"{type(exc).__name__}: {exc}"}
    return out


# -- hint cache, resolver, lock manager ----------------------------------------


def _hintcache_get_ns() -> float:
    from repro.hopsfs.hintcache import InodeHintCache

    cache = InodeHintCache()
    for i in range(1000):
        cache.put(i // 10, f"n{i}", 1000 + i, i // 10, False)
    keys = [(i // 10, f"n{i}") for i in range(1000)]

    def batch() -> float:
        start = time.perf_counter()
        for parent, name in keys:
            cache.get(parent, name)
        return time.perf_counter() - start

    return _median_per_call(batch, len(keys)) * 1e9


def _resolve_us(fs: Any, cold: bool) -> float:
    nn = fs.namenodes[0]
    session = nn.driver.session()
    calls = 20 if cold else 200

    def batch() -> float:
        spent = 0.0
        for _ in range(calls):
            if cold:
                nn.hint_cache.clear()

            def body(tx: Any) -> float:
                start = time.perf_counter()
                resolved = nn.resolver.resolve(tx, DEEP_PATH)
                taken = time.perf_counter() - start
                if resolved.last is None:
                    raise RuntimeError(f"{DEEP_PATH} did not resolve")
                return taken

            spent += session.run(body)
        return spent

    return _median_per_call(batch, calls) * 1e6


def _locks_acquire8_us() -> float:
    from repro.ndb.locks import LockManager, LockMode

    manager = LockManager()
    keys = [("t", (i,)) for i in range(8)]
    calls = 500

    def batch() -> float:
        start = time.perf_counter()
        for owner in range(calls):
            manager.acquire_many(owner, keys, LockMode.EXCLUSIVE)
            manager.release_all(owner)
        return time.perf_counter() - start

    return _median_per_call(batch, calls) * 1e6


# -- the DAL protocol, against either driver -----------------------------------


def _prepare_table(driver: Any) -> None:
    from repro.ndb.schema import TableSchema

    driver.create_table(TableSchema(
        name=PROBE_TABLE, columns=("grp", "k", "v"),
        primary_key=("grp", "k"), partition_key=("grp",)))
    session = driver.session()
    for grp in range(GROUPS):
        def fill(tx: Any, grp: int = grp) -> None:
            for k in range(ROWS_PER_GROUP):
                tx.insert(PROBE_TABLE, {"grp": grp, "k": k, "v": 0})
        session.run(fill)


def _dal_probe(driver: Any, work: Callable[[Any, int], Callable[[], Any]],
               calls: int) -> float:
    """µs per call of the timed part of ``work`` inside a transaction."""
    session = driver.session()

    def batch() -> float:
        spent = 0.0
        for i in range(calls):
            tx = session.begin()
            try:
                timed = work(tx, i)
                start = time.perf_counter()
                timed()
                spent += time.perf_counter() - start
            finally:
                tx.abort()  # a no-op once committed
        return spent

    return _median_per_call(batch, calls) * 1e6


def _read_batch8(tx: Any, i: int) -> Callable[[], Any]:
    keys = [((i + 8 * j) % GROUPS, j) for j in range(8)]
    return lambda: tx.read_batch(PROBE_TABLE, keys)


def _ppis16(tx: Any, i: int) -> Callable[[], Any]:
    return lambda: tx.ppis(PROBE_TABLE, {"grp": i % GROUPS})


def _commit2(tx: Any, i: int) -> Callable[[], Any]:
    tx.update(PROBE_TABLE, (i % GROUPS, 0), {"v": i})
    tx.update(PROBE_TABLE, ((i + 1) % GROUPS, 1), {"v": i})
    return tx.commit


def _dal_probes(prefix: str, driver: Any, calls: int) -> dict:
    prepared: list[bool] = []

    def probe(work: Callable) -> Callable[[], float]:
        def run() -> float:
            if not prepared:
                _prepare_table(driver)
                prepared.append(True)
            return _dal_probe(driver, work, calls)
        return run

    return {f"{prefix}.read_batch8_us": probe(_read_batch8),
            f"{prefix}.ppis16_us": probe(_ppis16),
            f"{prefix}.commit2_us": probe(_commit2)}


def _ping_rtt_us(remote: Any) -> float:
    calls = 200

    def batch() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            remote.ping()
        return time.perf_counter() - start

    return _median_per_call(batch, calls) * 1e6


def run_probes() -> dict[str, dict]:
    """Every group-3 metric: ``{name: {"value", "reason"}}``."""
    results = _guarded({
        "hintcache.get_ns": _hintcache_get_ns,
        "ndb.locks.acquire8_us": _locks_acquire8_us,
    })
    with deploy.embedded() as dep:
        dep.fs.client("probe").create(DEEP_PATH)
        results.update(_guarded({
            "tx.resolve_warm_us": lambda: _resolve_us(dep.fs, cold=False),
            "tx.resolve_cold_us": lambda: _resolve_us(dep.fs, cold=True),
        }))
        results.update(_guarded(_dal_probes("ndb", dep.fs.driver, 200)))
    with deploy.process() as dep:
        results.update(_guarded(_dal_probes("remote", dep.remote, 60)))
        results.update(_guarded({
            "rpc.ping_rtt_us": lambda: _ping_rtt_us(dep.remote)}))
    remote, local = (results["remote.read_batch8_us"]["value"],
                     results["ndb.read_batch8_us"]["value"])
    results["rpc.wire_us_per_rt"] = (
        {"value": remote - local, "reason": None}
        if remote is not None and local is not None else
        {"value": None, "reason": "needs remote and ndb read_batch8_us"})
    return results

