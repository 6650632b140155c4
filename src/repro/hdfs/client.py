"""HDFS client: failover-proxy behaviour over the active/standby pair."""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import (
    FileSystemError,
    NameNodeUnavailableError,
    SafeModeError,
    StandbyError,
)
from repro.hopsfs.types import BlockLocation, FileStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.cluster import HDFSCluster

#: attempts of one operation while the pair fails over, and of a close
MAX_RETRIES = 30


class HDFSClient:
    """Mirrors :class:`repro.hopsfs.client.DFSClient` against HDFS.

    HDFS clients know both namenodes and fail over between them when they
    hit a standby or a dead node — during an actual failover every retry
    fails until the standby is promoted, which is the downtime window the
    paper measures (Figure 10).
    """

    def __init__(self, cluster: "HDFSCluster", name: str = "client") -> None:
        self._cluster = cluster
        self.name = name
        self._rng = random.Random(hash(name) & 0xFFFF)
        self.operations_retried = 0

    def _call(self, fn: Callable[[Any], Any]) -> Any:
        last_exc: FileSystemError = NameNodeUnavailableError("no attempts")
        for _attempt in range(MAX_RETRIES):
            nn = self._cluster.active_or_any()
            if nn is not None:
                try:
                    return fn(nn)
                except (StandbyError, NameNodeUnavailableError,
                        SafeModeError) as exc:
                    last_exc = exc
            self.operations_retried += 1
            # allow the coordinator to promote the standby, then retry.
            # Backoff uses real time: the injected clock is for *modelled*
            # time (leases, failover timers) and may be manual.
            self._cluster.tick_failover()
            time.sleep(0.002)
        raise last_exc

    # -- namespace operations (same surface as DFSClient) -------------------------------

    def mkdirs(self, path: str, perm: int = 0o755, owner: str = "hdfs",
               group: str = "hdfs") -> bool:
        return self._call(lambda nn: nn.mkdirs(path, perm, owner, group))

    def create(self, path: str, perm: int = 0o644, owner: str = "hdfs",
               group: str = "hdfs", replication: Optional[int] = None,
               overwrite: bool = False) -> FileStatus:
        return self._call(lambda nn: nn.create(
            path, perm=perm, owner=owner, group=group, client=self.name,
            replication=replication, overwrite=overwrite))

    def stat(self, path: str) -> Optional[FileStatus]:
        return self._call(lambda nn: nn.get_file_info(path))

    def exists(self, path: str) -> bool:
        return self.stat(path) is not None

    def list_status(self, path: str):
        return self._call(lambda nn: nn.list_status(path))

    def get_block_locations(self, path: str):
        return self._call(lambda nn: nn.get_block_locations(path))

    def content_summary(self, path: str):
        return self._call(lambda nn: nn.content_summary(path))

    def delete(self, path: str, recursive: bool = False) -> bool:
        return self._call(lambda nn: nn.delete(path, recursive=recursive))

    def rename(self, src: str, dst: str) -> bool:
        return self._call(lambda nn: nn.rename(src, dst))

    def set_permission(self, path: str, perm: int) -> None:
        self._call(lambda nn: nn.set_permission(path, perm))

    def set_owner(self, path: str, owner: str, group: str) -> None:
        self._call(lambda nn: nn.set_owner(path, owner, group))

    def set_replication(self, path: str, replication: int) -> bool:
        return self._call(lambda nn: nn.set_replication(path, replication))

    def set_quota(self, path: str, ns_quota, ds_quota) -> None:
        self._call(lambda nn: nn.set_quota(path, ns_quota, ds_quota))

    def renew_lease(self) -> int:
        return self._call(lambda nn: nn.renew_lease(self.name))

    # -- data path ---------------------------------------------------------------------

    def write_file(self, path: str, data: bytes = b"",
                   replication: Optional[int] = None,
                   overwrite: bool = False) -> FileStatus:
        self.create(path, replication=replication, overwrite=overwrite)
        if data:
            block_size = self._cluster.BLOCK_SIZE
            for offset in range(0, len(data), block_size):
                self._write_block(path, data[offset: offset + block_size])
        for _attempt in range(MAX_RETRIES):
            if self._call(lambda nn: nn.complete(path, self.name)):
                return self.stat(path)
        raise FileSystemError(f"could not complete {path}")

    def append(self, path: str, data: bytes) -> FileStatus:
        self._call(lambda nn: nn.append_file(path, self.name))
        if data:
            self._write_block(path, data)
        for _attempt in range(MAX_RETRIES):
            if self._call(lambda nn: nn.complete(path, self.name)):
                return self.stat(path)
        raise FileSystemError(f"could not complete {path}")

    def read_file(self, path: str) -> bytes:
        located = self.get_block_locations(path)
        chunks: list[bytes] = []
        for block in located.blocks:
            data = None
            for dn_id in block.datanodes:
                dn = self._cluster.datanode(dn_id)
                if dn is not None and dn.alive:
                    data = dn.read_block(block.block_id)
                    if data is not None:
                        break
            if data is None:
                raise FileSystemError(
                    f"no live replica of block {block.block_id} of {path}")
            chunks.append(data)
        return b"".join(chunks)

    def _write_block(self, path: str, chunk: bytes) -> BlockLocation:
        block = self._call(lambda nn: nn.add_block(path, self.name))
        for dn_id in block.datanodes:
            dn = self._cluster.datanode(dn_id)
            if dn is None or not dn.alive:
                continue
            dn.store_block(block.block_id, chunk)
            self._cluster.notify_block_received(dn_id, block.block_id,
                                                len(chunk))
        return block
