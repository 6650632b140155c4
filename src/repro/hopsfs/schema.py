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
  partition-pruned scans on a single shard. The inode row's
  ``sub_tables`` bits say which of them (and of ``xattrs``, ``ec_*``,
  ``quotas``) can hold its rows, so a delete skips the rest.
* ``block_lookup`` maps a bare block id to its inode id (block reports
  only carry block ids).
* housekeeping tables: ``quotas``/``quota_updates`` (asynchronous quota
  accounting), ``le_descriptors`` (leader election through the database),
  ``active_subtree_ops`` (§6.1 phase 1), ``sequences`` (id allocation),
  ``datanodes`` (datanode registry).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from repro.dal.driver import DALDriver, DALTransaction
from repro.ndb.partition import stable_hash
from repro.ndb.schema import TableSchema

ROOT_ID = 1
ROOT_PART_KEY = 0
#: value of subtree_lock_owner when no subtree lock is held
NO_LOCK = -1

#: bits of ``inodes.sub_tables``. Blocks covers the block-state tables
#: too: they only ever hold rows of an existing block of the file.
SUB_BLOCKS = 1
SUB_XATTRS = 2
SUB_EC = 4
SUB_QUOTA = 8

#: the ``sub_tables`` bit an inode has set whenever a table holds a row
#: keyed by its ``inode_id`` (``leases`` and ``inv`` need none: every
#: file has its lease deleted, and ``inv`` outlives the file by design)
SUB_TABLE_BITS = {
    "blocks": SUB_BLOCKS,
    "replicas": SUB_BLOCKS,
    "urb": SUB_BLOCKS,
    "prb": SUB_BLOCKS,
    "cr": SUB_BLOCKS,
    "ruc": SUB_BLOCKS,
    "er": SUB_BLOCKS,
    "xattrs": SUB_XATTRS,
    "ec_files": SUB_EC,
    "ec_groups": SUB_EC,
    "quotas": SUB_QUOTA,
}

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
        #: which ``inode_id`` tables can hold rows of this inode, as
        #: ``SUB_*`` bits: 0 at creation, a bit set by the transaction
        #: that writes the first such row (under the inode's X lock) and
        #: never cleared, so always a superset of what exists — a delete
        #: scans and deletes only what the bits allow
        "sub_tables",
    ),
    primary_key=("part_key", "parent_id", "name"),
    partition_key=("part_key",),
    indexes={
        "by_id": ("id",),
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

#: tables whose rows belong to one file, keyed by its ``inode_id``: its
#: block rows, its lease, its extended metadata. An op writes them under
#: the file's X lock (§5.2.1); the leader's replication and invalidation
#: sweeps take them for many files at once with no inode lock
INODE_ROW_TABLES = frozenset(SUB_TABLE_BITS.keys() - {"quotas"}
                             | {"leases", "inv"})

#: ``lookup(table, index, key)``: the pk of the row whose ``index``
#: columns equal ``key``, as the requesting transaction sees it, or None
RowLookup = Callable[[str, str, tuple], Optional[tuple]]


def inode_depth(pk: tuple, lookup: RowLookup) -> Optional[int]:
    """The depth of the inode with primary key ``pk`` (the root is 0),
    counted up its parent ids (pk slot 1) through the ``by_id`` index. A
    move changes it, so the row's ``depth`` column does not serve. None
    if an ancestor is not found."""
    depth, parent = 0, pk[1]
    while parent:
        depth += 1
        if parent == ROOT_ID:
            break
        parent_pk = lookup("inodes", "by_id", (parent,))
        if parent_pk is None:
            return None
        parent = parent_pk[1]
    return depth


def lock_rank(table: str, pk: tuple, lookup: RowLookup,
              holds_inode_locks: bool) -> Optional[tuple[int, Any, Any]]:
    """A row lock's place in the one lock order (paper §3.4), as
    ``(tier, group, rank)``: a transaction requests the ``inodes`` locks
    (tier 0) before any other lock (tier 1), and within each group in
    rising rank. ``holds_inode_locks`` says whether the requesting
    transaction has requested an ``inodes`` lock before.

    * ``inodes``: one group, ranked by (depth, pk) (:func:`inode_depth`).
      A path is locked root-down and a subtree level by level, each level
      in pk order;
    * :data:`INODE_ROW_TABLES`, in a transaction that holds inode locks:
      a group per (table, inode), by pk. A file's rows are grouped under
      its X lock, and go both ways between tables (blocks and replicas,
      ``er`` and ``inv``);
    * every other table, the engine's own test tables included, and
      :data:`INODE_ROW_TABLES` in a transaction with no inode lock (the
      leader's sweeps, which nothing else orders): a group per table, by
      pk. ``quotas`` is one of them: the quota applier folds the rows of
      many directories in one transaction;
    * ``block_lookup`` has no rank: it is keyed by block id, and its row
      is written with its block's row, under that file's X lock, so the
      inode lock orders it (§5.2.1; fsck's repair sweep aside). A subtree
      delete removes the rows of a whole batch of files, file by file.

    None also for an inode whose depth cannot be traced.
    """
    if table == "block_lookup":
        return None
    if table == "inodes" and len(pk) == 3:
        depth = inode_depth(pk, lookup)
        return None if depth is None else (0, table, (depth, pk))
    if table in INODE_ROW_TABLES and holds_inode_locks:
        return 1, (table, pk[0]), pk
    return 1, table, pk


def create_all_tables(driver: DALDriver) -> None:
    for schema in ALL_TABLES:
        driver.create_table(schema)


def flag_sub_tables(tx: DALTransaction, row: Mapping[str, Any],
                    bits: int) -> None:
    """Set ``bits`` in the ``sub_tables`` of an inode row the caller
    holds X-locked, in the transaction that writes its first row of
    those tables; a no-op once they are set."""
    if row["sub_tables"] & bits != bits:
        tx.update("inodes", (row["part_key"], row["parent_id"], row["name"]),
                  {"sub_tables": row["sub_tables"] | bits})


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
