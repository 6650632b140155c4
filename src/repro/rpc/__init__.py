"""RPC subsystem: serve the DAL over sockets (process-based deployment).

The embedded deployment runs namenodes and the NDB engine in one Python
process, where the GIL caps throughput once enough client threads pile
on (ROADMAP item 2). This package provides the paper's actual shape —
database servers as separate processes reached over the network:

* :mod:`repro.rpc.protocol` — length-prefixed JSON wire protocol, typed
  error propagation, access-stats delta shipping;
* :mod:`repro.rpc.conn` — framed socket transport and the pipelining
  client connection;
* :mod:`repro.rpc.server` — ``ndb-server``: hosts an
  :class:`repro.ndb.NDBCluster` and serves the full ``DALTransaction``
  contract from one loop over every connection (``python -m repro
  serve``);
* :mod:`repro.rpc.supervisor` — spawns/monitors/stops server processes.

The client half lives in :class:`repro.dal.remote_driver.RemoteDriver`,
which implements the same ``DALDriver`` interface as the embedded
drivers — namenode code cannot tell the deployments apart.
"""

from repro.rpc.conn import ClientConn, FrameConn, dial
from repro.rpc.protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION
from repro.rpc.server import NDBServer
from repro.rpc.supervisor import ServerHandle, ServerPool, Supervisor

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ClientConn",
    "FrameConn",
    "NDBServer",
    "ServerHandle",
    "ServerPool",
    "Supervisor",
    "dial",
]
