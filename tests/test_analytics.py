"""Tests for §9: metadata export and free-text namespace search."""

import pytest

from repro.analytics import MetadataExporter, NamespaceSearchIndex
from tests.conftest import make_hopsfs


@pytest.fixture
def populated():
    fs = make_hopsfs(num_namenodes=1)
    client = fs.client("ana", seed=1)
    client.write_file("/projects/genomics/reads.dat", b"x" * 50)
    client.write_file("/projects/genomics/index.dat", b"x" * 10)
    client.write_file("/projects/ml/model.bin", b"x" * 100)
    client.mkdirs("/home/alice")
    client.set_owner("/projects/ml/model.bin", "alice", "ml")
    return fs, client


class TestExporter:
    def test_sync_builds_replica(self, populated):
        fs, _client = populated
        exporter = MetadataExporter(fs.driver)
        applied = exporter.sync()
        assert applied > 0
        files = exporter.replica.files()
        assert len(files) == 3

    def test_path_reconstruction(self, populated):
        fs, client = populated
        exporter = MetadataExporter(fs.driver)
        exporter.sync()
        inode_id = client.stat("/projects/ml/model.bin").inode_id
        assert exporter.replica.path_of(inode_id) == "/projects/ml/model.bin"

    def test_incremental_sync(self, populated):
        fs, client = populated
        exporter = MetadataExporter(fs.driver)
        exporter.sync()
        assert exporter.sync() == 0  # nothing new
        client.create("/projects/new.txt")
        assert exporter.sync() > 0
        paths = {exporter.replica.path_of(r["id"])
                 for r in exporter.replica.files()}
        assert "/projects/new.txt" in paths

    def test_deletes_propagate(self, populated):
        fs, client = populated
        exporter = MetadataExporter(fs.driver)
        exporter.sync()
        client.delete("/projects/genomics/index.dat")
        exporter.sync()
        paths = {exporter.replica.path_of(r["id"])
                 for r in exporter.replica.files()}
        assert "/projects/genomics/index.dat" not in paths

    def test_renames_propagate(self, populated):
        fs, client = populated
        exporter = MetadataExporter(fs.driver)
        client.rename("/projects/ml/model.bin", "/projects/ml/model_v2.bin")
        exporter.sync()
        paths = {exporter.replica.path_of(r["id"])
                 for r in exporter.replica.files()}
        assert "/projects/ml/model_v2.bin" in paths
        assert "/projects/ml/model.bin" not in paths

    def test_analytics_queries(self, populated):
        fs, _client = populated
        exporter = MetadataExporter(fs.driver)
        exporter.sync()
        replica = exporter.replica
        assert replica.total_size() == 160
        top = replica.largest_files(1)
        assert top[0] == ("/projects/ml/model.bin", 100)
        assert replica.usage_by_owner()["alice"] == 100


class TestSearchIndex:
    def make_index(self, populated):
        fs, _client = populated
        exporter = MetadataExporter(fs.driver)
        exporter.sync()
        index = NamespaceSearchIndex()
        index.index_replica(exporter.replica)
        return index

    def test_single_token(self, populated):
        index = self.make_index(populated)
        assert index.search("genomics") == [
            "/projects/genomics", "/projects/genomics/index.dat",
            "/projects/genomics/reads.dat"]

    def test_and_query(self, populated):
        index = self.make_index(populated)
        assert index.search("genomics reads") == [
            "/projects/genomics/reads.dat"]

    def test_owner_search(self, populated):
        index = self.make_index(populated)
        assert "/projects/ml/model.bin" in index.search("alice")

    def test_no_match(self, populated):
        index = self.make_index(populated)
        assert index.search("nonexistent-token") == []

    def test_prefix_search(self, populated):
        index = self.make_index(populated)
        assert "/projects/genomics/reads.dat" in index.prefix_search("gen")

    def test_remove_document(self, populated):
        index = self.make_index(populated)
        hits = index.search("model")
        assert hits
        inode_ids = [i for i, p in index._docs.items() if "model" in p]
        for inode_id in inode_ids:
            index.remove_document(inode_id)
        assert index.search("model") == []

    def test_empty_query(self, populated):
        index = self.make_index(populated)
        assert index.search("   ") == []
