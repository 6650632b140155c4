"""HopsFS client (paper §3).

Clients distribute file system operations over namenodes using one of
three selection policies — random, round-robin or sticky — refresh the
namenode list periodically, and transparently re-execute operations that
fail because a namenode died or a subtree lock was in the way. HDFS v2.x
clients correspond to the sticky policy pinned to a single namenode.
"""

from __future__ import annotations

import enum
import random
import time
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import (
    FileSystemError,
    NameNodeUnavailableError,
    RetriableError,
    SubtreeLockedError,
)
from repro.hopsfs.types import (
    BlockLocation,
    ContentSummary,
    DirectoryListing,
    FileStatus,
    LocatedBlocks,
)
from repro.util.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.hopsfs.cluster import HopsFSCluster
    from repro.hopsfs.namenode import NameNode

#: backoff before re-trying an operation a subtree operation held up
#: (§6.3): full jitter, drawn from the client's own seeded RNG so that a
#: seed replays, growing from 2 ms
SUBTREE_LOCKED_BACKOFF = RetryPolicy(base_delay=0.002, max_delay=0.1)

#: attempts of one operation (failovers and retries included), and of
#: the close that waits for a file's write pipeline
MAX_RETRIES = 20


class NamenodeSelectionPolicy(enum.Enum):
    RANDOM = "random"
    ROUND_ROBIN = "round-robin"
    STICKY = "sticky"


class DFSClient:
    def __init__(self, cluster: "HopsFSCluster", name: str = "client",
                 policy: NamenodeSelectionPolicy = NamenodeSelectionPolicy.STICKY,
                 seed: Optional[int] = None) -> None:
        self._cluster = cluster
        self.name = name
        self.policy = policy
        self._rng = random.Random(seed if seed is not None else hash(name) & 0xFFFF)
        self._sleep = time.sleep
        self._namenodes: list["NameNode"] = []
        self._rr_index = 0
        self._sticky: Optional["NameNode"] = None
        self.refresh_namenodes()
        self.operations_retried = 0

    # -- namenode selection -----------------------------------------------------------

    def refresh_namenodes(self) -> None:
        self._namenodes = self._cluster.live_namenodes()
        if self._sticky is not None and not self._sticky.alive:
            self._sticky = None

    def _pick(self) -> "NameNode":
        if not self._namenodes:
            self.refresh_namenodes()
        candidates = [nn for nn in self._namenodes if nn.alive]
        if not candidates:
            self.refresh_namenodes()
            candidates = [nn for nn in self._namenodes if nn.alive]
        if not candidates:
            raise NameNodeUnavailableError("no live namenodes")
        if self.policy is NamenodeSelectionPolicy.STICKY:
            if self._sticky is None or not self._sticky.alive:
                self._sticky = self._rng.choice(candidates)
            return self._sticky
        if self.policy is NamenodeSelectionPolicy.ROUND_ROBIN:
            nn = candidates[self._rr_index % len(candidates)]
            self._rr_index += 1
            return nn
        return self._rng.choice(candidates)

    def _call(self, fn: Callable[["NameNode"], Any]) -> Any:
        """Invoke an operation with transparent failover (§7.6.1)."""
        last_exc: FileSystemError = NameNodeUnavailableError("no attempts")
        locked = 0  # retries so far behind a subtree lock
        for _attempt in range(MAX_RETRIES):
            nn = self._pick()
            try:
                return fn(nn)
            except NameNodeUnavailableError as exc:
                # the namenode died: drop it and retry elsewhere
                self._sticky = None
                self.refresh_namenodes()
                self.operations_retried += 1
                last_exc = exc
            except SubtreeLockedError as exc:
                # wait for the subtree operation to finish, then retry.
                # Real-time backoff: the injected clock may be manual.
                locked += 1
                self._sleep(SUBTREE_LOCKED_BACKOFF.backoff(locked, self._rng))
                self.operations_retried += 1
                last_exc = exc
            except RetriableError as exc:
                self.operations_retried += 1
                last_exc = exc
        raise last_exc

    # -- namespace operations ----------------------------------------------------------

    def mkdirs(self, path: str, perm: int = 0o755, owner: str = "hdfs",
               group: str = "hdfs") -> bool:
        return self._call(lambda nn: nn.mkdirs(path, perm, owner, group))

    def create(self, path: str, perm: int = 0o644, owner: str = "hdfs",
               group: str = "hdfs", replication: Optional[int] = None,
               overwrite: bool = False,
               create_parents: bool = True) -> FileStatus:
        return self._call(lambda nn: nn.create(
            path, perm=perm, owner=owner, group=group, client=self.name,
            replication=replication, overwrite=overwrite,
            create_parents=create_parents))

    def stat(self, path: str) -> Optional[FileStatus]:
        return self._call(lambda nn: nn.get_file_info(path))

    def exists(self, path: str) -> bool:
        return self.stat(path) is not None

    def list_status(self, path: str) -> DirectoryListing:
        return self._call(lambda nn: nn.list_status(path))

    def get_block_locations(self, path: str) -> LocatedBlocks:
        return self._call(lambda nn: nn.get_block_locations(path))

    def content_summary(self, path: str) -> ContentSummary:
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

    def set_quota(self, path: str, ns_quota: Optional[int],
                  ds_quota: Optional[int]) -> None:
        self._call(lambda nn: nn.set_quota(path, ns_quota, ds_quota))

    def renew_lease(self) -> int:
        return self._call(lambda nn: nn.renew_lease(self.name))

    # -- extended attributes (§9) ---------------------------------------------------

    def set_xattr(self, path: str, name: str, value: str) -> None:
        self._call(lambda nn: nn.set_xattr(path, name, value))

    def get_xattrs(self, path: str) -> dict:
        return self._call(lambda nn: nn.get_xattrs(path))

    def remove_xattr(self, path: str, name: str) -> bool:
        return self._call(lambda nn: nn.remove_xattr(path, name))

    # -- data path -----------------------------------------------------------------------

    def write_file(self, path: str, data: bytes = b"",
                   replication: Optional[int] = None,
                   overwrite: bool = False) -> FileStatus:
        """Create, write (through datanodes) and close a file."""
        self.create(path, replication=replication, overwrite=overwrite)
        if data:
            block_size = self._cluster.config.block_size
            for offset in range(0, len(data), block_size):
                chunk = data[offset: offset + block_size]
                self._write_block(path, chunk)
        self._complete(path)
        return self.stat(path)

    def append(self, path: str, data: bytes) -> FileStatus:
        self._call(lambda nn: nn.append_file(path, self.name))
        if data:
            self._write_block(path, data)
        self._complete(path)
        return self.stat(path)

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
            self._call(lambda nn, dn_id=dn_id: nn.block_received(
                dn_id, block.block_id, len(chunk)))
        return block

    def _complete(self, path: str) -> None:
        for _attempt in range(MAX_RETRIES):
            if self._call(lambda nn: nn.complete(path, self.name)):
                return
        raise FileSystemError(f"could not complete {path}: pipeline unfinished")
