"""The DAL contract is three structural protocols, so nothing checks an
engine at instantiation: this test does instead. Every public member of
``DALDriver``, ``DALSession`` and ``DALTransaction`` must exist on each
shipped engine's driver, session and transaction — the NDB cluster
itself, the single-node memory engine and the remote driver — and a
protocol method must be callable there.
"""

import inspect

import pytest

from repro.dal import (
    DALDriver,
    DALSession,
    DALTransaction,
    MemoryDriver,
    NDBCluster,
    RemoteDriver,
)
from repro.ndb import NDBConfig
from repro.rpc import NDBServer

PROTOCOLS = {"driver": DALDriver, "session": DALSession,
             "transaction": DALTransaction}


def members(protocol):
    """``{name: declared member}`` of a protocol: its methods and
    properties plus its annotated attributes (``None``)."""
    found = {name: None for name in protocol.__annotations__}
    found.update((name, value) for name, value in vars(protocol).items()
                 if not name.startswith("_"))
    return found


def test_the_protocols_declare_the_contract():
    assert {"create_table", "session", "table_size", "engine_name",
            "round_trips_wait", "metrics_registry"} == set(members(DALDriver))
    assert {"stats", "begin", "run"} == set(members(DALSession))
    assert {"stats", "read", "read_batch", "ppis", "ppis_batch",
            "index_scan", "full_scan", "insert", "update", "write",
            "delete", "delete_batch", "commit", "abort"} == set(
                members(DALTransaction))


@pytest.fixture(params=["ndb", "memory", "remote"])
def engine(request):
    """``{"driver", "session", "transaction"}`` objects of one engine."""
    if request.param == "remote":
        with NDBServer(config=NDBConfig(num_datanodes=2)) as server:
            driver = RemoteDriver(server.host, server.port, timeout=10.0)
            try:
                yield from _objects(driver)
            finally:
                driver.close()
        return
    driver = NDBCluster() if request.param == "ndb" else MemoryDriver()
    yield from _objects(driver)


def _objects(driver):
    session = driver.session()
    tx = session.begin()
    try:
        yield {"driver": driver, "session": session, "transaction": tx}
    finally:
        tx.abort()


@pytest.mark.parametrize("layer", sorted(PROTOCOLS))
def test_every_protocol_member_exists(engine, layer):
    obj = engine[layer]
    missing = []
    for name, declared in members(PROTOCOLS[layer]).items():
        if not hasattr(obj, name):
            missing.append(name)
        elif inspect.isfunction(declared) and not callable(getattr(obj, name)):
            missing.append(f"{name} (not callable)")
    assert not missing, f"{type(obj).__name__} lacks {missing}"
