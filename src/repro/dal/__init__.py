"""Data Access Layer (DAL).

HopsFS namenodes never talk to a database directly: every access goes
through a DAL driver (paper §3, "similar to JDBC"), which makes the
storage engine pluggable (§8 mentions MemSQL and SAP Hana as candidates).
The contract is three structural protocols (:mod:`repro.dal.driver`), so
an engine plugs in without inheriting from anything.

Three drivers ship with this reproduction:

* :class:`NDBCluster` — the real thing, :mod:`repro.ndb` itself: the
  cluster, its sessions and transactions satisfy the protocols directly;
* :class:`MemoryDriver` — a trivial single-node engine with the same
  transactional interface, used to prove pluggability and as an ablation
  baseline (every table lives on one "shard", so nothing is distribution
  aware);
* :class:`RemoteDriver` — the process-based deployment: the same
  contract spoken over a socket to an ``ndb-server`` process
  (:mod:`repro.rpc`), so the database runs outside the client's GIL.
"""

from repro.dal.driver import DALDriver, DALSession, DALTransaction
from repro.dal.memory_driver import MemoryDriver
from repro.dal.remote_driver import RemoteDriver, RemoteSession, RemoteTransaction
from repro.ndb.cluster import NDBCluster

__all__ = [
    "DALDriver",
    "DALSession",
    "DALTransaction",
    "MemoryDriver",
    "NDBCluster",
    "RemoteDriver",
    "RemoteSession",
    "RemoteTransaction",
]
