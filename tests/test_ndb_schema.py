"""Tests for table schemas and partition placement."""

import zlib

import pytest

from repro.errors import SchemaError
from repro.ndb.partition import PartitionMap, stable_hash
from repro.ndb.schema import TableSchema


def make_schema(**overrides):
    defaults = dict(
        name="inodes",
        columns=("parent_id", "name", "inode_id", "is_dir"),
        primary_key=("parent_id", "name"),
        partition_key=("parent_id",),
        indexes={"by_inode": ("inode_id",)},
    )
    defaults.update(overrides)
    return TableSchema(**defaults)


class TestTableSchema:
    def test_partition_key_defaults_to_primary_key(self):
        schema = TableSchema(name="t", columns=("a", "b"), primary_key=("a",))
        assert schema.partition_key == ("a",)

    def test_partition_key_must_be_subset_of_pk(self):
        with pytest.raises(SchemaError):
            make_schema(partition_key=("is_dir",))

    def test_pk_column_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema(name="t", columns=("a",), primary_key=("nope",))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(name="t", columns=("a", "a"), primary_key=("a",))

    def test_empty_pk_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(name="t", columns=("a",), primary_key=())

    def test_index_columns_must_exist(self):
        with pytest.raises(SchemaError):
            make_schema(indexes={"bad": ("missing",)})

    def test_validate_row_requires_all_columns(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.validate_row({"parent_id": 1, "name": "x", "inode_id": 2})

    def test_validate_row_rejects_extras(self):
        schema = make_schema()
        row = dict(parent_id=1, name="x", inode_id=2, is_dir=False, extra=1)
        with pytest.raises(SchemaError):
            schema.validate_row(row)

    def test_validate_row_rejects_null_pk(self):
        schema = make_schema()
        row = dict(parent_id=None, name="x", inode_id=2, is_dir=False)
        with pytest.raises(SchemaError):
            schema.validate_row(row)

    def test_pk_tuple_from_mapping_and_sequence(self):
        schema = make_schema()
        assert schema.pk_tuple({"parent_id": 7, "name": "a"}) == (7, "a")
        assert schema.pk_tuple((7, "a")) == (7, "a")

    def test_pk_tuple_wrong_arity(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.pk_tuple((7,))

    def test_partition_values_from_pk(self):
        schema = make_schema()
        assert schema.partition_values_from_pk((7, "a")) == (7,)

    def test_partition_values_from_mapping(self):
        schema = make_schema()
        assert schema.partition_values({"parent_id": 9}) == (9,)
        with pytest.raises(SchemaError):
            schema.partition_values({"name": "a"})


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash((1, "foo")) == stable_hash((1, "foo"))

    def test_type_sensitive(self):
        assert stable_hash((1,)) != stable_hash(("1",))

    def test_order_sensitive(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_bytes_equal_the_repr_encoding(self):
        """The ``int`` shortcut hashes the bytes every value type hashes:
        ``type name:repr``, so every placement stays where it was."""
        def reference(values):
            crc = 0
            for value in values:
                crc = zlib.crc32(
                    f"{type(value).__name__}:{value!r}".encode(), crc)
            return crc

        cases = [0, 1, -1, -(2 ** 40), 2 ** 63, 2 ** 64 + 7, -(2 ** 100),
                 True, False, "plain", "é'\"ü", "it's", None, 1.5, -0.0,
                 (1, "a"), ()]
        for value in cases:
            assert stable_hash((value,)) == reference((value,)), value
        assert stable_hash(cases) == reference(cases)
        assert stable_hash((True,)) != stable_hash((1,))


class TestPartitionMap:
    def test_partitions_in_range(self):
        pmap = PartitionMap(num_partitions=8, num_node_groups=2, replication=2)
        for i in range(200):
            assert 0 <= pmap.partition_of((i,)) < 8

    def test_same_partition_key_same_partition(self):
        pmap = PartitionMap(num_partitions=8, num_node_groups=2, replication=2)
        assert pmap.partition_of((5,)) == pmap.partition_of((5,))

    def test_replica_nodes_stay_in_group(self):
        pmap = PartitionMap(num_partitions=12, num_node_groups=3, replication=2)
        for pid in range(12):
            group = pmap.node_group_of(pid)
            nodes = pmap.replica_nodes(pid)
            assert len(nodes) == 2
            assert len(set(nodes)) == 2
            assert all(n // 2 == group for n in nodes)

    def test_primary_rotation_balances_primaries(self):
        pmap = PartitionMap(num_partitions=8, num_node_groups=2, replication=2)
        primaries = [pmap.replica_nodes(pid)[0] for pid in range(8)]
        # each of the 4 nodes should be primary for exactly 2 partitions
        counts = {n: primaries.count(n) for n in range(4)}
        assert counts == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_distribution_reasonably_uniform(self):
        pmap = PartitionMap(num_partitions=8, num_node_groups=4, replication=2)
        counts = [0] * 8
        for i in range(8000):
            counts[pmap.partition_of((i,))] += 1
        assert min(counts) > 600  # ideal is 1000 per partition
