"""HopsFS/HDFS datanodes: block storage, heartbeats, commands, reports.

Datanodes are identical for HopsFS and the HDFS baseline — the paper's
change is confined to the metadata layer. A datanode stores replica
payloads in memory (the benchmarks use zero-length files, like the
paper's, but real bytes are supported for end-to-end tests), sends
heartbeats, executes namenode commands (replicate/invalidate) and
produces block reports.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ReplicateCommand:
    """Copy a block from a peer datanode (re-replication)."""

    block_id: int
    inode_id: int
    source_dn: int
    target_dn: int


@dataclass(frozen=True)
class InvalidateCommand:
    """Delete a local replica."""

    block_id: int
    target_dn: int


Command = ReplicateCommand | InvalidateCommand


class DataNode:
    def __init__(self, dn_id: int) -> None:
        self.dn_id = dn_id
        self.alive = True  # guarded_by: GIL
        self._blocks: dict[int, bytes] = {}  # guarded_by: _mutex
        self._mutex = threading.Lock()

    # -- storage ------------------------------------------------------------------

    def store_block(self, block_id: int, data: bytes = b"") -> None:
        if not self.alive:
            raise ConnectionError(f"datanode {self.dn_id} is down")
        with self._mutex:
            self._blocks[block_id] = bytes(data)

    def read_block(self, block_id: int) -> Optional[bytes]:
        if not self.alive:
            raise ConnectionError(f"datanode {self.dn_id} is down")
        with self._mutex:
            return self._blocks.get(block_id)

    def delete_block(self, block_id: int) -> None:
        with self._mutex:
            self._blocks.pop(block_id, None)

    def has_block(self, block_id: int) -> bool:
        with self._mutex:
            return block_id in self._blocks

    def block_count(self) -> int:
        with self._mutex:
            return len(self._blocks)

    # -- lifecycle ------------------------------------------------------------------

    def kill(self, lose_data: bool = False) -> None:
        self.alive = False
        if lose_data:
            with self._mutex:
                self._blocks.clear()

    def restart(self) -> None:
        self.alive = True

    # -- namenode interaction -----------------------------------------------------------

    def block_report(self) -> list[tuple[int, int]]:
        """(block_id, length) for every stored replica."""
        with self._mutex:
            return [(block_id, len(data))
                    for block_id, data in self._blocks.items()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"DataNode(id={self.dn_id}, {state}, blocks={self.block_count()})"
