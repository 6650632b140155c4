"""RPC subsystem: serve the DAL over sockets (process-based deployment).

The paper's shape — database servers as separate processes reached over
the network, each with its own GIL:

* :mod:`repro.rpc.protocol` — length-prefixed JSON wire protocol, typed
  error propagation, access-stats shipping;
* :mod:`repro.rpc.conn` — framed socket transport (one frame reader at
  both ends) and the client connection;
* :mod:`repro.rpc.loop` — one leader/follower loop serving a handler
  table over every connection;
* :mod:`repro.rpc.server` — ``ndb-server``: the handler table and
  transaction registry that serve an :class:`repro.ndb.NDBCluster`'s
  full ``DALTransaction`` contract (``python -m repro serve``);
* :mod:`repro.rpc.supervisor` — spawns/monitors/stops server processes,
  each on a CPU of its own when the host has one to spare.

The client half is :class:`repro.dal.remote_driver.RemoteDriver`, which
implements the same ``DALDriver`` interface as the embedded drivers —
namenode code cannot tell the deployments apart.
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
