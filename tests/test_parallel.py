"""Parallel execution layer: determinism, fallbacks, serialization.

The contract under test: every parallelized hot path (corpus
collection, forest fit/predict, boosting rounds, CV folds) produces
bit-identical results for any worker count, and the plumbing
(``REPRO_JOBS`` resolution, the shard-directory write protocol, the
on-disk array encoding) behaves.
"""

import json
import os

import numpy as np
import pytest

from repro import parallel
from repro.collection.dataset import Dataset, DatasetFormatError
from repro.collection.harness import CollectionConfig, collect_corpus
from repro.collection.shards import MANIFEST_NAME, shard_name
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import cross_val_predict
from repro.workloads import get_profile
from tests.records import record_bytes


def _square(x):
    return x * x


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    parallel.shutdown()


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert parallel.resolve_jobs(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert parallel.resolve_jobs(None) == 5

    def test_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert parallel.resolve_jobs(None) == (os.cpu_count() or 1)
        assert parallel.resolve_jobs(-1) == (os.cpu_count() or 1)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            parallel.resolve_jobs(0)
        with pytest.raises(ValueError):
            parallel.resolve_jobs(-2)

    def test_worker_flag_forces_sequential(self, monkeypatch):
        monkeypatch.setattr(parallel, "_IN_WORKER", True)
        assert parallel.resolve_jobs(8) == 1


class TestParallelMap:
    def test_matches_sequential_and_order(self):
        items = list(range(23))
        expected = [_square(x) for x in items]
        assert parallel.parallel_map(_square, items, n_jobs=1) == expected
        assert parallel.parallel_map(_square, items, n_jobs=4) == expected

    def test_empty_and_single(self):
        assert parallel.parallel_map(_square, [], n_jobs=4) == []
        assert parallel.parallel_map(_square, [3], n_jobs=4) == [9]


class TestCorpusDeterminism:
    def test_njobs_bit_identical(self):
        """Acceptance: corpus from n_jobs=4 equals n_jobs=1, record
        for record."""
        base = collect_corpus("svc3", 5, seed=11, n_jobs=1)
        for jobs in (2, 4):
            other = collect_corpus("svc3", 5, seed=11, n_jobs=jobs)
            assert len(other) == len(base)
            for ra, rb in zip(base, other):
                assert record_bytes(ra) == record_bytes(rb)

    def test_profile_object_supported(self):
        profile = get_profile("svc3")
        a = collect_corpus(profile, 3, seed=2, n_jobs=1)
        b = collect_corpus(profile, 3, seed=2, n_jobs=2)
        assert [record_bytes(s) for s in a] == [record_bytes(s) for s in b]

    def test_zero_sessions(self):
        assert len(collect_corpus("svc3", 0, seed=0, n_jobs=4)) == 0


class TestForestDeterminism:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(150, 9)), rng.integers(0, 3, 150)

    def test_njobs_bit_identical(self, data):
        """Acceptance: predictions and importances identical for
        n_jobs in {1, 2, 4} at fixed random_state."""
        X, y = data
        ref = RandomForestClassifier(
            n_estimators=12, random_state=7, oob_score=True, n_jobs=1
        ).fit(X, y)
        for jobs in (2, 4):
            forest = RandomForestClassifier(
                n_estimators=12, random_state=7, oob_score=True, n_jobs=jobs
            ).fit(X, y)
            assert np.array_equal(forest.predict(X), ref.predict(X))
            assert np.array_equal(forest.predict_proba(X), ref.predict_proba(X))
            assert np.array_equal(
                forest.feature_importances_, ref.feature_importances_
            )
            assert forest.oob_score_ == ref.oob_score_

    def test_parallel_predict_on_sequential_fit(self, data):
        X, y = data
        forest = RandomForestClassifier(
            n_estimators=8, random_state=3, n_jobs=1
        ).fit(X, y)
        sequential = forest.predict_proba(X)
        forest.n_jobs = 4
        assert np.array_equal(forest.predict_proba(X), sequential)

    def test_matches_pre_parallel_rng_stream(self, data):
        """The pre-drawn spec loop must consume the generator exactly
        like the historical fit loop (sample, then seed, per tree)."""
        X, y = data
        forest = RandomForestClassifier(n_estimators=3, random_state=42, n_jobs=1)
        forest.fit(X, y)
        rng = np.random.default_rng(42)
        n = X.shape[0]
        for tree in forest.trees_:
            rng.integers(0, n, size=n)  # bootstrap sample
            assert tree.random_state == int(rng.integers(2**31 - 1))

    def test_boosting_njobs_identical(self, data):
        X, y = data
        a = GradientBoostingClassifier(
            n_estimators=5, random_state=2, subsample=0.8, n_jobs=1
        ).fit(X, y)
        b = GradientBoostingClassifier(
            n_estimators=5, random_state=2, subsample=0.8, n_jobs=2
        ).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_cross_val_predict_njobs_identical(self, data):
        X, y = data
        model = RandomForestClassifier(n_estimators=8, random_state=1, n_jobs=1)
        p1 = cross_val_predict(model, X, y, n_jobs=1)
        p2 = cross_val_predict(model, X, y, n_jobs=3)
        assert np.array_equal(p1, p2)


class TestTraceMixtureCache:
    def test_normalized_once(self):
        config = CollectionConfig(
            trace_weights={f: w * 2 for f, w in CollectionConfig().trace_weights.items()}
        )
        probs = config._trace_probs
        assert probs.sum() == pytest.approx(1.0)
        assert len(config._trace_families) == len(config.trace_weights)

    def test_sample_trace_uses_cache(self):
        config = CollectionConfig()
        rng = np.random.default_rng(0)
        trace = config.sample_trace(rng)
        assert trace.duration >= config.max_watch_s

    def test_config_pickles_with_cache(self):
        import pickle

        config = pickle.loads(pickle.dumps(CollectionConfig()))
        assert config.sample_trace(np.random.default_rng(1)) is not None


class TestAtomicSave:
    def test_no_temp_leftovers_and_overwrite(self, tmp_path):
        ds = collect_corpus("svc3", 2, seed=4, n_jobs=1)
        path = tmp_path / "corpus.shards"
        ds.save(path)
        ds.save(path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.shards"]
        assert sorted(p.name for p in path.iterdir()) == [
            MANIFEST_NAME, shard_name(0)
        ]
        assert len(Dataset.load(path)) == 2

    def test_failed_overwrite_leaves_incomplete_directory(
        self, tmp_path, monkeypatch
    ):
        """The old manifest goes first, so a failed overwrite leaves a
        directory that loads with the named "incomplete" error — never
        the old corpus passed off as the new one."""
        ds = collect_corpus("svc3", 2, seed=4, n_jobs=1)
        path = tmp_path / "corpus.shards"
        ds.save(path)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            ds.save(path)
        monkeypatch.undo()
        assert not (path / MANIFEST_NAME).exists()
        with pytest.raises(DatasetFormatError, match="incomplete"):
            Dataset.load(path)
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.shards"]
        assert [p.name for p in path.iterdir()] == [shard_name(0)]


class TestSerializationFormats:
    @pytest.fixture(scope="class")
    def dataset(self):
        return collect_corpus("svc3", 3, seed=6, n_jobs=1)

    def test_format2_roundtrip_bit_identical(self, dataset, tmp_path):
        """Every array round-trips through the shard codec bit for bit,
        dtypes included."""
        loaded = dataset.save(tmp_path / "corpus.shards")
        for ra, rb in zip(dataset, loaded):
            assert np.array_equal(ra.transfers, rb.transfers)
            assert ra.transfers.dtype == rb.transfers.dtype
            assert np.array_equal(ra.connections, rb.connections)
            for key in ra.http:
                assert np.array_equal(ra.http[key], rb.http[key])
                assert ra.http[key].dtype == rb.http[key].dtype
            assert record_bytes(ra) == record_bytes(rb)

    def test_format_version_field_written(self, dataset, tmp_path):
        saved = dataset.save(tmp_path / "corpus.shards")
        manifest = json.loads((saved.root / MANIFEST_NAME).read_text())
        assert manifest["format"] == saved.format == 4
        with np.load(saved.root / shard_name(0), allow_pickle=False) as z:
            # Raw typed arrays, and one columnar TLS block per shard.
            assert z["transfers"].dtype == np.float64
            assert {"tls_start", "tls_offsets"} <= set(z.files)
