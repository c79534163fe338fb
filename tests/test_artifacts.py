"""The content-addressed artifact store (:mod:`repro.artifacts`)."""

import json

import numpy as np
import pytest

from repro import artifacts
from repro.artifacts import (
    ARRAYS,
    ArtifactStore,
    atomic_write_bytes,
    canonical_json,
    digest,
    fingerprint,
    get_store,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=tmp_path)


class TestFingerprint:
    def test_structure(self):
        fp = fingerprint("corpus", {"service": "svc1", "n": 5}, deps=("abc",))
        assert fp["stage"] == "corpus"
        assert fp["cache_version"] == artifacts.CACHE_VERSION
        assert fp["config"] == {"service": "svc1", "n": 5}
        assert fp["deps"] == ["abc"]

    def test_digest_is_deterministic_and_order_free(self):
        a = fingerprint("s", {"x": 1, "y": (2, 3)})
        b = fingerprint("s", {"y": [2, 3], "x": 1})
        assert digest(a) == digest(b)

    def test_config_changes_change_digest(self):
        base = digest(fingerprint("s", {"x": 1}))
        assert digest(fingerprint("s", {"x": 2})) != base
        assert digest(fingerprint("t", {"x": 1})) != base
        assert digest(fingerprint("s", {"x": 1}, deps=("d",))) != base

    def test_numpy_scalars_coerced(self):
        a = fingerprint("s", {"n": np.int64(3), "f": np.float64(0.5)})
        b = fingerprint("s", {"n": 3, "f": 0.5})
        assert digest(a) == digest(b)

    def test_unfingerprintable_values_rejected(self):
        with pytest.raises(TypeError):
            fingerprint("s", {"fn": lambda: None})
        with pytest.raises(TypeError):
            fingerprint("s", {"arr": np.zeros(3)})
        with pytest.raises(TypeError):
            fingerprint("s", {1: "non-string key"})

    def test_invalid_stage_name(self):
        with pytest.raises(ValueError):
            fingerprint("", {})
        with pytest.raises(ValueError):
            fingerprint("a/b", {})

    def test_canonical_json_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "sub" / "x.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"

    def test_no_temp_litter(self, tmp_path):
        path = tmp_path / "x.bin"
        atomic_write_bytes(path, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


class TestGetOrCompute:
    def test_roundtrip_and_counters(self, store):
        calls = []

        def build():
            calls.append(1)
            return {"X": np.arange(6.0).reshape(2, 3)}

        value, key = store.get_or_compute("stage", {"a": 1}, build)
        again, key2 = store.get_or_compute("stage", {"a": 1}, build)
        assert key == key2
        assert len(calls) == 1
        assert again is value  # memory hit returns the same object
        np.testing.assert_array_equal(value["X"], np.arange(6.0).reshape(2, 3))
        snap = store.counter_snapshot()
        assert snap["misses"] == 1
        assert snap["memory_hits"] == 1
        assert snap["hits"] == 0

    def test_disk_hit_after_memory_clear(self, store):
        build = lambda: {"v": np.array([1, 2, 3])}
        _, key = store.get_or_compute("stage", {"a": 1}, build)
        store.clear_memory()
        value, _ = store.get_or_compute(
            "stage", {"a": 1}, lambda: pytest.fail("should not rebuild")
        )
        np.testing.assert_array_equal(value["v"], [1, 2, 3])
        assert store.counter_snapshot()["hits"] == 1

    def test_use_disk_false_writes_nothing(self, store, tmp_path):
        store.get_or_compute(
            "stage", {"a": 1}, lambda: {"v": np.zeros(1)}, use_disk=False
        )
        assert not (tmp_path / "artifacts").exists()

    def test_corrupted_payload_recomputed(self, store):
        build_calls = []

        def build():
            build_calls.append(1)
            return {"v": np.array([7.0])}

        _, key = store.get_or_compute("stage", {"a": 1}, build)
        store.clear_memory()
        # Truncate the payload on disk: the entry must silently read as
        # a miss and be recomputed (and recommitted).
        payload = store.payload_path("stage", key)
        payload.write_bytes(b"not a real npz archive")
        value, _ = store.get_or_compute("stage", {"a": 1}, build)
        np.testing.assert_array_equal(value["v"], [7.0])
        assert len(build_calls) == 2
        # The recompute overwrote the corrupted entry.
        store.clear_memory()
        store.get_or_compute("stage", {"a": 1}, lambda: pytest.fail("rebuilt"))

    def test_corrupted_meta_recomputed(self, store):
        _, key = store.get_or_compute("stage", {"a": 1}, lambda: {"v": np.zeros(2)})
        store.clear_memory()
        store.meta_path("stage", key).write_text("{ not json")
        value, _ = store.get_or_compute("stage", {"a": 1}, lambda: {"v": np.ones(2)})
        np.testing.assert_array_equal(value["v"], [1, 1])

    def test_fingerprint_mismatch_recomputed(self, store):
        """A meta whose stored fingerprint disagrees (stale schema,
        hash-prefix collision) is stale, never served."""
        _, key = store.get_or_compute("stage", {"a": 1}, lambda: {"v": np.zeros(2)})
        store.clear_memory()
        meta_path = store.meta_path("stage", key)
        meta = json.loads(meta_path.read_text())
        meta["fingerprint"]["config"]["a"] = 999
        meta_path.write_text(json.dumps(meta))
        value, _ = store.get_or_compute("stage", {"a": 1}, lambda: {"v": np.ones(2)})
        np.testing.assert_array_equal(value["v"], [1, 1])

    def test_memory_lru_evicts_oldest(self, tmp_path):
        store = ArtifactStore(root=tmp_path, max_memory_items=2)
        for i in range(3):
            store.get_or_compute("stage", {"i": i}, lambda i=i: {"v": np.array([i])})
        assert len(store._memory) == 2
        # Oldest entry (i=0) fell out of memory but survives on disk.
        store.get_or_compute(
            "stage", {"i": 0}, lambda: pytest.fail("disk entry lost")
        )
        assert store.counter_snapshot()["hits"] == 1


class TestMaintenance:
    def test_stats_and_clear(self, store):
        store.get_or_compute("alpha", {"i": 1}, lambda: {"v": np.zeros(4)})
        store.get_or_compute("beta", {"i": 2}, lambda: {"v": np.zeros(4)})
        stats = store.stats()
        assert stats["entries"] == 2
        assert set(stats["stages"]) == {"alpha", "beta"}
        assert stats["bytes"] > 0
        removed = store.clear()
        assert removed == 4  # two payloads + two metas
        assert store.stats()["entries"] == 0
        # After clearing, entries recompute cleanly.
        store.get_or_compute("alpha", {"i": 1}, lambda: {"v": np.zeros(4)})

    def test_staging_directories_are_counted_and_cleared(self, store, tmp_path):
        """A staging directory a killed corpus build left behind shows
        in ``stats`` and goes with ``clear``."""
        staging = tmp_path / f"{artifacts.STAGING_PREFIX}abc123"
        staging.mkdir()
        (staging / "shard-00000.npz").write_bytes(b"x" * 1000)
        store.get_or_compute("alpha", {"i": 1}, lambda: {"v": np.zeros(4)})
        stats = store.stats()
        assert stats["staging"] == {"dirs": 1, "bytes": 1000}
        assert stats["entries"] == 1
        assert store.clear() == 3  # payload + meta + the staged shard
        assert not staging.exists()
        assert store.stats()["staging"] == {"dirs": 0, "bytes": 0}

    def test_clear_leaves_foreign_files_alone(self, store, tmp_path):
        foreign = tmp_path / "foreign.json.gz"
        foreign.write_bytes(b"foreign")
        store.get_or_compute("alpha", {"i": 1}, lambda: {"v": np.zeros(1)})
        store.clear()
        assert foreign.exists()


class TestGetStore:
    def test_singleton_per_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV_VAR, str(tmp_path / "a"))
        a1, a2 = get_store(), get_store()
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV_VAR, str(tmp_path / "b"))
        b = get_store()
        assert a1 is a2
        assert b is not a1

    def test_default_root_is_dot_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv(artifacts.CACHE_DIR_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        assert artifacts.cache_dir() == tmp_path / ".cache"


class TestArraysCodec:
    def test_roundtrip_mixed_dtypes(self, tmp_path):
        value = {
            "floats": np.linspace(0, 1, 5),
            "ints": np.arange(4, dtype=np.int64),
        }
        path = tmp_path / "x.npz"
        ARRAYS.save(value, path)
        loaded = ARRAYS.load(path)
        for key in value:
            np.testing.assert_array_equal(loaded[key], value[key])
