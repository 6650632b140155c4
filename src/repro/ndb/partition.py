"""Partition placement: stable hashing, node groups, primary/backup replicas.

A cluster of ``N`` datanodes with replication degree ``R`` forms ``N/R``
node groups (paper §2.2.1). Tables are split into a fixed number of
partitions; partition ``p`` is assigned to node group ``p mod G`` and every
node in that group stores a replica. Within the group, the *primary*
replica rotates with the partition index so primaries spread evenly.
"""

from __future__ import annotations

import zlib
from typing import Any, Sequence


def stable_hash(values: Sequence[Any]) -> int:
    """Deterministic hash of a tuple of values.

    Python's builtin ``hash`` is randomized per process for strings, which
    would make partition placement (and therefore test expectations and
    benchmark profiles) non-reproducible; CRC32 over a canonical encoding
    is stable across runs.
    """
    crc = 0
    for value in values:
        if type(value) is int:  # the same bytes, without the str round
            encoded = b"int:%d" % value
        else:
            encoded = f"{type(value).__name__}:{value!r}".encode()
        crc = zlib.crc32(encoded, crc)
    return crc


class PartitionMap:
    """Maps partition-key values to partitions and partitions to nodes."""

    def __init__(self, num_partitions: int, num_node_groups: int, replication: int) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        self.num_partitions = num_partitions
        self.num_node_groups = num_node_groups
        self.replication = replication

    def partition_of(self, partition_values: Sequence[Any]) -> int:
        return stable_hash(partition_values) % self.num_partitions

    def node_group_of(self, partition_id: int) -> int:
        return partition_id % self.num_node_groups

    def replica_nodes(self, partition_id: int) -> list[int]:
        """Datanode ids storing ``partition_id``, primary-preference order.

        Node ids are laid out so group ``g`` owns nodes
        ``[g*R, g*R + R)``. The preference order rotates with the
        partition index so primaries are balanced across a group.
        """
        group = self.node_group_of(partition_id)
        base = group * self.replication
        rotation = (partition_id // self.num_node_groups) % self.replication
        return [
            base + ((rotation + i) % self.replication)
            for i in range(self.replication)
        ]
