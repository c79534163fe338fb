"""Format-4 sharded corpus tests: round-trips, retired formats, crash
atomicity, digest verification, and the lazy-access contract."""

import json

import numpy as np
import pytest

from repro.collection.dataset import Dataset, DatasetFormatError
from repro.collection.harness import collect_corpus
from repro.collection.shards import (
    MANIFEST_NAME,
    ShardedDataset,
    save_sharded,
    shard_name,
)
from repro.qoe.labels import TARGETS


@pytest.fixture(scope="module")
def corpus():
    return collect_corpus("svc2", 11, seed=19)


@pytest.fixture()
def sharded(corpus, tmp_path):
    return save_sharded(corpus, tmp_path / "corpus.shards", shard_size=4)


def assert_records_equal(ra, rb):
    assert ra.tls_transactions == rb.tls_transactions
    assert ra.video_id == rb.video_id
    assert ra.session_hosts == rb.session_hosts
    assert ra.labels == rb.labels
    np.testing.assert_array_equal(ra.transfers, rb.transfers)
    np.testing.assert_array_equal(ra.connections, rb.connections)
    for key in ra.http:
        np.testing.assert_array_equal(ra.http[key], rb.http[key])


class TestRoundTrip:
    def test_layout(self, sharded):
        assert sharded.n_shards == 3
        assert [e.name for e in sharded.entries] == [shard_name(i) for i in range(3)]
        assert [e.n_sessions for e in sharded.entries] == [4, 4, 3]
        assert (sharded.root / MANIFEST_NAME).exists()

    def test_sessions_identical(self, corpus, sharded):
        assert sharded.service == corpus.service
        assert len(sharded) == len(corpus)
        for ra, rb in zip(corpus, sharded):
            assert_records_equal(ra, rb)

    def test_dataset_save_dispatches(self, corpus, tmp_path):
        out = corpus.save(tmp_path / "via-save.shards", shard_size=5)
        assert isinstance(out, ShardedDataset)
        assert out.n_shards == 3

    def test_dataset_load_dispatches(self, sharded):
        via_dir = Dataset.load(sharded.root)
        via_manifest = Dataset.load(sharded.root / MANIFEST_NAME)
        assert isinstance(via_dir, ShardedDataset)
        assert isinstance(via_manifest, ShardedDataset)
        assert via_dir.manifest_digest == via_manifest.manifest_digest

    def test_getitem_crosses_shard_bounds(self, corpus, sharded):
        for i in (0, 3, 4, 10, -1):
            assert_records_equal(sharded[i], corpus.sessions[i])
        with pytest.raises(IndexError):
            sharded[len(corpus)]

    def test_tls_table_matches_monolithic(self, corpus, sharded):
        mono, shard = corpus.tls_table(), sharded.tls_table()
        np.testing.assert_array_equal(mono.start, shard.start)
        np.testing.assert_array_equal(mono.uplink, shard.uplink)
        np.testing.assert_array_equal(mono.offsets, shard.offsets)
        assert mono.sni == shard.sni

    def test_labels_and_distribution(self, corpus, sharded):
        for target in TARGETS:
            np.testing.assert_array_equal(
                sharded.labels(target), corpus.labels(target)
            )
            np.testing.assert_allclose(
                sharded.label_distribution(target),
                corpus.label_distribution(target),
            )
        with pytest.raises(ValueError):
            sharded.labels("nope")

    def test_to_dataset(self, corpus, sharded):
        back = sharded.to_dataset()
        assert isinstance(back, Dataset)
        for ra, rb in zip(corpus, back):
            assert_records_equal(ra, rb)

    def test_save_is_deterministic(self, corpus, tmp_path):
        a = save_sharded(corpus, tmp_path / "a.shards", shard_size=4)
        b = save_sharded(corpus, tmp_path / "b.shards", shard_size=4)
        assert a.manifest_digest == b.manifest_digest
        assert [e.sha256 for e in a.entries] == [e.sha256 for e in b.entries]

    def test_resave_removes_stray_shards(self, corpus, tmp_path):
        root = tmp_path / "corpus.shards"
        first = save_sharded(corpus, root, shard_size=2)
        assert first.n_shards == 6
        again = save_sharded(corpus, root, shard_size=4)
        assert again.n_shards == 3
        on_disk = sorted(p.name for p in root.glob("shard-*.npz"))
        assert on_disk == [shard_name(i) for i in range(3)]


class TestLaziness:
    def test_labels_never_materialize_shards(self, sharded):
        sharded.drop_caches()
        sharded.labels("combined")
        assert sharded.counters["materialized"] == 0

    def test_lru_keeps_two_shards(self, sharded):
        sharded.drop_caches()
        list(sharded)  # shard-at-a-time sweep
        assert sharded.counters["materialized"] == sharded.n_shards
        sharded.shard(2), sharded.shard(1)  # both still cached
        assert sharded.counters["cache_hits"] == 2
        sharded.shard(0)  # evicted by the sweep, re-materializes
        assert sharded.counters["materialized"] == sharded.n_shards + 1


class TestLegacyFormats:
    """Format 3 keeps loading next to format 4; the retired formats 1
    and 2 are rejected at the edge with a named error."""

    def _legacy_file(self, corpus, version, path):
        sessions = [s.to_dict(include_tls=True) for s in corpus.sessions]
        if version == 1:
            for s in sessions:
                for key in ("transfers", "connections"):
                    s[key] = np.asarray(s[key]).tolist()
            payload = {"service": corpus.service, "sessions": sessions}
        else:
            payload = {
                "format": 2,
                "service": corpus.service,
                "n_sessions": len(sessions),
                "sessions": sessions,
            }
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("version", [1, 2])
    def test_formats_1_and_2(self, corpus, tmp_path, version, capsys):
        from repro.cli import main

        path = tmp_path / f"v{version}.json"
        self._legacy_file(corpus, version, path)
        with pytest.raises(DatasetFormatError) as excinfo:
            Dataset.load(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"format {version} " in message
        assert "format-3 files and format-4 shard directories" in message
        assert main(["corpus", "info", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_format_3(self, corpus, tmp_path):
        path = tmp_path / "v3.json.gz"
        corpus.save(path)
        loaded = Dataset.load(path)
        for ra, rb in zip(corpus, loaded):
            assert_records_equal(ra, rb)

    def test_format_4_in_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": 4, "sessions": []}))
        with pytest.raises(DatasetFormatError, match="sharded directory"):
            Dataset.load(path)


class TestCorruption:
    def test_missing_manifest_means_incomplete(self, sharded, tmp_path):
        """Crash-mid-write atomicity: the manifest is written last, so a
        directory without one is explicitly incomplete, never a
        silently short corpus."""
        (sharded.root / MANIFEST_NAME).unlink()
        with pytest.raises(DatasetFormatError, match="incomplete"):
            ShardedDataset.load(sharded.root)

    def test_empty_dir_is_not_a_corpus(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            Dataset.load(tmp_path)

    def test_manifest_garbage(self, sharded):
        (sharded.root / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(DatasetFormatError):
            ShardedDataset.load(sharded.root)

    def test_unknown_format_version(self, sharded):
        payload = json.loads((sharded.root / MANIFEST_NAME).read_text())
        payload["format"] = 99
        (sharded.root / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError, match="99"):
            ShardedDataset.load(sharded.root)

    def test_verify_ok(self, sharded):
        report = sharded.verify()
        assert report["shards"] == sharded.n_shards
        assert report["bytes"] > 0

    def test_verify_catches_corruption(self, sharded):
        victim = sharded.root / sharded.entries[1].name
        victim.write_bytes(b"garbage")
        with pytest.raises(DatasetFormatError, match=sharded.entries[1].name):
            sharded.verify()

    def test_verify_catches_missing_shard(self, sharded):
        (sharded.root / sharded.entries[0].name).unlink()
        with pytest.raises(DatasetFormatError):
            sharded.verify()

    def test_loading_corrupt_shard_fails_loud(self, sharded):
        (sharded.root / sharded.entries[0].name).write_bytes(b"garbage")
        sharded.drop_caches()
        with pytest.raises(DatasetFormatError):
            sharded.shard(0)


class TestEdgeCases:
    def test_empty_corpus(self, tmp_path):
        empty = Dataset(service="svc1", sessions=[])
        out = save_sharded(empty, tmp_path / "empty.shards", shard_size=4)
        assert len(out) == 0
        assert out.n_shards == 0
        assert list(out) == []
        assert out.labels("combined").shape == (0,)
        np.testing.assert_array_equal(out.label_distribution("combined"), np.zeros(3))

    def test_shard_size_one(self, corpus, tmp_path):
        out = save_sharded(corpus, tmp_path / "tiny.shards", shard_size=1)
        assert out.n_shards == len(corpus)
        for ra, rb in zip(corpus, out):
            assert_records_equal(ra, rb)

    def test_shard_size_validation(self, corpus, tmp_path):
        with pytest.raises(ValueError):
            save_sharded(corpus, tmp_path / "bad.shards", shard_size=0)
