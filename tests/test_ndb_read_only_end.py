"""A read-only transaction's end under coordinator failover (§2.2.1).

A read-only commit applies nothing, but it still ends the transaction:
a failover victim must not report success, and it must hold no lock
afterwards — whether it ends with ``commit()`` or with the commit riding
its last batched read (``read_batch(..., commit=True)``, what a warm
``stat`` does).
"""

import threading
import time

import pytest

from repro.errors import TransactionAbortedError
from repro.faults import FaultInjector, FaultPlan, installed
from repro.ndb import LockMode, NDBCluster, NDBConfig, TableSchema
from repro.ndb.transaction import TxState

KV = TableSchema(name="kv", columns=("k", "v"), primary_key=("k",))

ENDS = {
    "commit": lambda tx: tx.commit(),
    "read_batch": lambda tx: tx.read_batch("kv", [(1,)], commit=True),
}


def make_cluster():
    cluster = NDBCluster(NDBConfig(num_datanodes=4, replication=2,
                                   lock_timeout=0.4))
    cluster.create_table(KV)
    with cluster.begin() as tx:
        tx.write("kv", {"k": 1, "v": "x"})
    return cluster


def _writer_gets_the_row(cluster):
    with cluster.begin() as tx:
        tx.update("kv", (1,), {"v": "y"})
    with cluster.begin() as tx:
        assert tx.read("kv", (1,))["v"] == "y"


@pytest.mark.parametrize("end", sorted(ENDS))
def test_a_read_only_victim_never_reports_success(end):
    cluster = make_cluster()
    tx = cluster.begin()
    assert tx.read("kv", (1,), lock=LockMode.SHARED)["v"] == "x"
    cluster.kill_node(tx.coordinator)
    with pytest.raises(TransactionAbortedError):
        ENDS[end](tx)
    assert tx.state is TxState.ABORTED
    assert cluster._locks.lock_table_size() == 0
    _writer_gets_the_row(cluster)


@pytest.mark.parametrize("end", sorted(ENDS))
def test_a_failover_that_lands_during_the_end_aborts_it(end):
    """The failover picks and marks the victim while its end sits at the
    commit site, before the structure gate: the end then finds the mark
    and raises, and the failover's own abort, which waited for the end
    to let go of the transaction, finds nothing left to do."""
    cluster = make_cluster()
    tx = cluster.begin()
    tx.read("kv", (1,), lock=LockMode.SHARED)
    killers = []

    def failover_now():
        killer = threading.Thread(target=cluster.kill_node,
                                  args=(tx.coordinator,))
        killer.start()
        killers.append(killer)
        deadline = time.monotonic() + 2.0
        while not cluster._locks.is_aborted(tx):
            assert time.monotonic() < deadline
            time.sleep(0.001)

    plan = FaultPlan()
    plan.add("ndb.commit.before_apply", action="call", callback="failover",
             match={"tx_id": tx.tx_id})
    injector = FaultInjector(plan, callbacks={"failover": failover_now})
    with installed(injector):
        with pytest.raises(TransactionAbortedError, match="failover"):
            ENDS[end](tx)
    killers[0].join(timeout=2.0)
    assert not killers[0].is_alive()
    assert tx.state is TxState.ABORTED
    assert cluster._locks.lock_table_size() == 0
    _writer_gets_the_row(cluster)
