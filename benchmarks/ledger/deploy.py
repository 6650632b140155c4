"""The two deployments a workload runs on, and what they cost the host.

Only the cluster shape is passed (4 NDB datanodes, replication 2, 10 s
lock timeout); every other config field keeps its default.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro.dal import RemoteDriver
from repro.hopsfs import HopsFSCluster
from repro.ndb import NDBConfig
from repro.rpc.supervisor import Supervisor

ROOT = Path(__file__).resolve().parents[2]
#: sockets and trace files go here (inside the checkout, git-ignored)
RUN_DIR = ROOT / ".ledger_run"

NDB_SHAPE = dict(num_datanodes=4, replication=2, lock_timeout=10.0)
SERVE_SHAPE = dict(datanodes=4, replication=2, lock_timeout=10.0)

_socket_ids = itertools.count()
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def _socket_path() -> str:
    """A fresh AF_UNIX path, relative when that is shorter (108-byte cap)."""
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"ndb-{os.getpid()}-{next(_socket_ids)}.sock"
    relative = os.path.relpath(path)
    return min(str(path), relative, key=len)


@dataclass
class Deployment:
    fs: HopsFSCluster
    #: None when the engine is in-process
    remote: Optional[RemoteDriver] = None
    server_pid: Optional[int] = None

    def cpu_seconds(self) -> float:
        """User+system CPU of this process plus the ndb-server so far."""
        total = time.process_time()
        if self.server_pid is not None:
            with open(f"/proc/{self.server_pid}/stat", encoding="ascii") as fh:
                # fields after the parenthesised command name; utime and
                # stime are fields 14 and 15 of the whole line
                fields = fh.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICKS_PER_S
        return total

    def peak_rss_mb(self) -> float:
        """ru_maxrss of this process plus VmHWM of the ndb-server."""
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.server_pid is not None:
            with open(f"/proc/{self.server_pid}/status",
                      encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb += int(line.split()[1])
        return peak_kb / 1024.0


@contextlib.contextmanager
def embedded() -> Iterator[Deployment]:
    yield Deployment(HopsFSCluster(num_namenodes=1, num_datanodes=3,
                                   ndb_config=NDBConfig(**NDB_SHAPE)))


@contextlib.contextmanager
def process() -> Iterator[Deployment]:
    """One ndb-server child over AF_UNIX; the namenode's DAL is remote."""
    with Supervisor() as supervisor:
        handle = supervisor.spawn("ledger-ndb", unix=_socket_path(),
                                  **SERVE_SHAPE)
        with RemoteDriver(handle.host, handle.port,
                          unix_path=handle.unix_path) as driver:
            fs = HopsFSCluster(num_namenodes=1, num_datanodes=3,
                               driver=driver)
            yield Deployment(fs, remote=driver, server_pid=handle.pid)


DEPLOYS = {"embedded": embedded, "process": process}
