"""HopsFS metadata schema and partition-key rules (paper §4).

The entity-relation model of Figure 3, fully normalized:

* ``inodes`` — one row per file or directory. The primary key is
  ``(part_key, parent_id, name)`` and the partition key is ``part_key``,
  which is normally the parent inode id (all children of a directory live
  on one shard, so ``ls`` is a partition-pruned scan) but is a pseudo-
  random hash of the inode's name for the configurable top levels of the
  hierarchy (§4.2.1, hotspot avoidance).
* file-inode-related tables (``blocks``, ``replicas``, ``urb``, ``prb``,
  ``cr``, ``ruc``, ``er``, ``inv``, ``leases``) are all partitioned on the
  file's inode id, so reading one file's metadata is a handful of
  partition-pruned scans on a single shard.
* ``block_lookup`` maps a bare block id to its inode id (block reports
  only carry block ids).
* housekeeping tables: ``quotas``/``quota_updates`` (asynchronous quota
  accounting), ``le_descriptors`` (leader election through the database),
  ``active_subtree_ops`` (§6.1 phase 1), ``sequences`` (id allocation),
  ``datanodes`` (datanode registry).
"""

from __future__ import annotations

from repro.dal.driver import DALDriver
from repro.ndb.partition import stable_hash
from repro.ndb.schema import TableSchema

ROOT_ID = 1
ROOT_PART_KEY = 0
#: value of subtree_lock_owner when no subtree lock is held
NO_LOCK = -1

INODES = TableSchema(
    name="inodes",
    columns=(
        "part_key",      # partition key: parent_id or name hash (top levels)
        "parent_id",
        "name",
        "id",
        "is_dir",
        "perm",
        "owner",
        "group",
        "mtime",
        "atime",
        "size",          # aggregate byte size (files)
        "replication",   # target replication factor (files)
        "under_construction",
        "client",        # lease holder while under construction
        "subtree_lock_owner",  # namenode id or NO_LOCK
        "subtree_op",    # operation name while subtree-locked
        "depth",         # path depth at creation time (root=0)
        #: True if this directory's children are pseudo-randomly
        #: partitioned by name hash (fixed at creation; §4.2.1)
        "children_random",
    ),
    primary_key=("part_key", "parent_id", "name"),
    partition_key=("part_key",),
    indexes={
        "by_id": ("id",),
        "by_parent_name": ("parent_id", "name"),
        "by_parent": ("parent_id",),
    },
)

BLOCKS = TableSchema(
    name="blocks",
    columns=("inode_id", "block_id", "idx", "size", "gen_stamp", "state"),
    primary_key=("inode_id", "block_id"),
    partition_key=("inode_id",),
)

REPLICAS = TableSchema(
    name="replicas",
    columns=("inode_id", "block_id", "dn_id", "state"),
    primary_key=("inode_id", "block_id", "dn_id"),
    partition_key=("inode_id",),
    indexes={"by_dn": ("dn_id",)},
)

BLOCK_LOOKUP = TableSchema(
    name="block_lookup",
    columns=("block_id", "inode_id"),
    primary_key=("block_id",),
)

UNDER_REPLICATED = TableSchema(
    name="urb",
    columns=("inode_id", "block_id", "level", "wanted"),
    primary_key=("inode_id", "block_id"),
    partition_key=("inode_id",),
)

PENDING_REPLICATION = TableSchema(
    name="prb",
    columns=("inode_id", "block_id", "target_dn", "since"),
    primary_key=("inode_id", "block_id"),
    partition_key=("inode_id",),
)

CORRUPT_REPLICAS = TableSchema(
    name="cr",
    columns=("inode_id", "block_id", "dn_id"),
    primary_key=("inode_id", "block_id", "dn_id"),
    partition_key=("inode_id",),
)

REPLICA_UNDER_CONSTRUCTION = TableSchema(
    name="ruc",
    columns=("inode_id", "block_id", "dn_id"),
    primary_key=("inode_id", "block_id", "dn_id"),
    partition_key=("inode_id",),
)

EXCESS_REPLICAS = TableSchema(
    name="er",
    columns=("inode_id", "block_id", "dn_id"),
    primary_key=("inode_id", "block_id", "dn_id"),
    partition_key=("inode_id",),
)

INVALIDATED = TableSchema(
    name="inv",
    columns=("inode_id", "block_id", "dn_id"),
    primary_key=("inode_id", "block_id", "dn_id"),
    partition_key=("inode_id",),
    indexes={"by_dn": ("dn_id",)},
)

#: §9: extended attributes — extra metadata keyed by the inode's foreign
#: key (which is also the partition key), so xattr reads ride the same
#: partition-pruned scan as the rest of the file's metadata and integrity
#: follows from the inode row's hierarchical lock.
XATTRS = TableSchema(
    name="xattrs",
    columns=("inode_id", "name", "value"),
    primary_key=("inode_id", "name"),
    partition_key=("inode_id",),
)

#: §9: erasure coding — like xattrs, implemented as *extended metadata*:
#: extra tables keyed by the inode's foreign key. ``ec_files`` marks a
#: file as erasure coded with its group width k; ``ec_groups`` maps each
#: group of k consecutive data blocks to its parity block.
EC_FILES = TableSchema(
    name="ec_files",
    columns=("inode_id", "k"),
    primary_key=("inode_id",),
)

EC_GROUPS = TableSchema(
    name="ec_groups",
    columns=("inode_id", "group_idx", "parity_block_id"),
    primary_key=("inode_id", "group_idx"),
    partition_key=("inode_id",),
)

LEASES = TableSchema(
    name="leases",
    columns=("inode_id", "holder", "last_renewed"),
    primary_key=("inode_id",),
    indexes={"by_holder": ("holder",)},
)

QUOTAS = TableSchema(
    name="quotas",
    columns=("inode_id", "ns_quota", "ds_quota", "ns_used", "ds_used"),
    primary_key=("inode_id",),
)

QUOTA_UPDATES = TableSchema(
    name="quota_updates",
    columns=("update_id", "inode_id", "ns_delta", "ds_delta"),
    primary_key=("update_id",),
    indexes={"by_inode": ("inode_id",)},
)

LE_DESCRIPTORS = TableSchema(
    name="le_descriptors",
    columns=("nn_id", "counter", "location"),
    primary_key=("nn_id",),
)

ACTIVE_SUBTREE_OPS = TableSchema(
    name="active_subtree_ops",
    columns=("inode_id", "nn_id", "op", "path"),
    primary_key=("inode_id",),
)

SEQUENCES = TableSchema(
    name="sequences",
    columns=("name", "next_value"),
    primary_key=("name",),
)

DATANODES = TableSchema(
    name="datanodes",
    columns=("dn_id", "state", "last_heartbeat", "capacity"),
    primary_key=("dn_id",),
)

ALL_TABLES = (
    INODES,
    BLOCKS,
    REPLICAS,
    XATTRS,
    EC_FILES,
    EC_GROUPS,
    BLOCK_LOOKUP,
    UNDER_REPLICATED,
    PENDING_REPLICATION,
    CORRUPT_REPLICAS,
    REPLICA_UNDER_CONSTRUCTION,
    EXCESS_REPLICAS,
    INVALIDATED,
    LEASES,
    QUOTAS,
    QUOTA_UPDATES,
    LE_DESCRIPTORS,
    ACTIVE_SUBTREE_OPS,
    SEQUENCES,
    DATANODES,
)

def create_all_tables(driver: DALDriver) -> None:
    for schema in ALL_TABLES:
        driver.create_table(schema)


def name_hash_partition_key(name: str) -> int:
    """Pseudo-random partition key for top-level inodes (§4.2.1)."""
    return stable_hash((name,)) % 1_000_003  # large prime spreads names


def child_partition_key(parent_children_random: bool, parent_id: int,
                        name: str) -> int:
    """Partition key of a child inode (paper §4.2, §4.2.1).

    Children of directories in the pseudo-randomly partitioned top levels
    are placed by a hash of their own name (spreading the hot top of the
    namespace over all shards); everywhere else children are placed by
    their parent's inode id so a directory's contents are co-located.
    Whether a directory's children are hashed is fixed when the directory
    is created and travels with the row — moves never re-partition the
    descendants (§6.2: inner inodes are left intact).
    """
    if parent_children_random:
        return name_hash_partition_key(name)
    return parent_id
