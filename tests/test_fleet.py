"""Collector and fleet tests: worker-count and task-shape determinism,
golden equivalence with the in-memory pipeline, and exact per-shard
cache accounting."""

import numpy as np
import pytest

from repro import config, telemetry
from repro.artifacts import get_store
from repro.collection.dataset import Dataset
from repro.collection.fleet import extract_tls_sharded, score_sharded
from repro.collection.harness import collect_corpus
from repro.collection.shards import shard_bounds
from repro.features.tls_features import extract_tls_matrix
from repro.ml.forest import RandomForestClassifier

N_SESSIONS = 13
SEED = 5


@pytest.fixture(scope="module")
def monolithic():
    return collect_corpus("svc1", N_SESSIONS, seed=SEED)


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet") / "corpus.shards"
    return collect_corpus(
        "svc1", N_SESSIONS, seed=SEED, n_jobs=1, out=out, shard_size=4
    )


class TestShardBounds:
    def test_covers_every_session(self):
        assert shard_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert shard_bounds(8, 4) == [(0, 4), (4, 8)]
        assert shard_bounds(0, 4) == []
        assert shard_bounds(3, 100) == [(0, 3)]

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 0)


def _collect_spans(**kwargs) -> list[dict]:
    """The ``collect_chunk`` spans of one traced collection."""
    with telemetry.tracing() as tracer:
        collect_corpus("svc1", **kwargs)
    return [e for e in tracer.export()["events"] if e["name"] == "collect_chunk"]


class TestCollect:
    def test_identical_for_any_worker_count(self, sharded, tmp_path):
        # 13 sessions in shards of 4: jobs 1 and 2 write one shard per
        # task, jobs 4 collects one chunk per worker.
        for jobs in (2, 4):
            parallel = collect_corpus(
                "svc1", N_SESSIONS, seed=SEED, n_jobs=jobs,
                out=tmp_path / f"p{jobs}.shards", shard_size=4,
            )
            assert parallel.manifest_digest == sharded.manifest_digest
            assert [e.sha256 for e in parallel.entries] == [
                e.sha256 for e in sharded.entries
            ]

    def test_identical_to_monolithic_collection(self, monolithic, sharded):
        """Per-session SeedSequence streams make the corpus independent
        of how it is chunked onto shards."""
        assert len(sharded) == len(monolithic)
        for ra, rb in zip(monolithic, sharded):
            assert ra.tls_transactions == rb.tls_transactions
            assert ra.labels == rb.labels

    def test_shard_size_does_not_change_sessions(self, sharded, tmp_path):
        other = collect_corpus(
            "svc1", N_SESSIONS, seed=SEED, n_jobs=2,
            out=tmp_path / "o.shards", shard_size=7,
        )
        np.testing.assert_array_equal(
            other.tls_table().start, sharded.tls_table().start
        )
        np.testing.assert_array_equal(
            other.labels("combined"), sharded.labels("combined")
        )

    def test_overwrites_previous_manifest(self, tmp_path):
        out = tmp_path / "re.shards"
        collect_corpus("svc1", 5, seed=1, n_jobs=1, out=out, shard_size=2)
        redone = collect_corpus("svc1", 3, seed=2, n_jobs=1, out=out, shard_size=2)
        assert len(redone) == 3
        assert len(Dataset.load(out)) == 3

    def test_shard_size_needs_out(self):
        with pytest.raises(ValueError, match="out="):
            collect_corpus("svc1", 2, shard_size=2)

    def test_one_shard_corpus_fans_out_over_workers(self, tmp_path):
        """A corpus smaller than one shard per worker still uses every
        worker: one chunk each, cut into shards by the coordinator."""
        spans = _collect_spans(
            n_sessions=6, seed=SEED, n_jobs=2, out=tmp_path / "one.shards"
        )
        assert [s["attrs"]["sessions"] for s in spans] == [3, 3]

    def test_whole_shards_are_written_by_their_workers(self, tmp_path):
        spans = _collect_spans(
            n_sessions=9, seed=SEED, n_jobs=2,
            out=tmp_path / "three.shards", shard_size=4,
        )
        assert [s["attrs"]["sessions"] for s in spans] == [4, 4, 1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counts_every_simulated_request(self, jobs, tmp_path):
        """One ``collection.requests`` count per chunk, merged from the
        workers: the corpus's HTTP transactions, at any worker count."""
        with telemetry.tracing() as tracer:
            corpus = collect_corpus(
                "svc1", 9, seed=SEED, n_jobs=jobs, out=tmp_path / "c.shards", shard_size=4
            )
        requests = int(corpus.column("n_http_transactions").sum())
        assert requests > 0
        assert tracer.counters["collection.requests"] == requests
        assert tracer.counters["collection.sessions"] == 9


class TestExtract:
    def test_matches_monolithic_and_reconciles_counters(
        self, monolithic, sharded, tmp_path
    ):
        X_mono, names_mono = extract_tls_matrix(monolithic)
        with config.override(cache_dir=tmp_path / "cache"):
            store = get_store()
            store.reset_counters()
            X_cold, names = extract_tls_sharded(sharded, n_jobs=2)
            cold = store.counter_snapshot()
            store.reset_counters()
            store.clear_memory()
            X_warm, _ = extract_tls_sharded(sharded, n_jobs=2)
            warm = store.counter_snapshot()

        assert names == names_mono
        np.testing.assert_array_equal(X_cold, X_mono)
        np.testing.assert_array_equal(X_warm, X_mono)
        # Probe-then-compute accounting: every shard is exactly one
        # miss cold and exactly one hit warm — no double counting.
        assert cold["misses"] == sharded.n_shards
        assert cold["hits"] == 0
        assert warm["misses"] == 0
        assert warm["hits"] == sharded.n_shards

    def test_warm_run_reads_no_shards(self, sharded, tmp_path):
        with config.override(cache_dir=tmp_path / "cache"):
            extract_tls_sharded(sharded, n_jobs=1)
            sharded.drop_caches()
            before = sharded.counters["materialized"]
            extract_tls_sharded(sharded, n_jobs=1)
        assert sharded.counters["materialized"] == before

    def test_worker_count_invariance(self, sharded, tmp_path):
        with config.override(cache_dir=tmp_path / "c1"):
            X1, _ = extract_tls_sharded(sharded, n_jobs=1)
        with config.override(cache_dir=tmp_path / "c4"):
            X4, _ = extract_tls_sharded(sharded, n_jobs=4)
        np.testing.assert_array_equal(X1, X4)

    def test_extract_via_feature_facade(self, monolithic, sharded):
        """extract_tls_matrix accepts the sharded corpus directly and
        reduces shard-at-a-time to the exact monolithic matrix."""
        X_mono, _ = extract_tls_matrix(monolithic)
        X_shard, _ = extract_tls_matrix(sharded)
        np.testing.assert_array_equal(X_shard, X_mono)


class TestScore:
    def test_matches_monolithic_predictions(self, monolithic, sharded, tmp_path):
        X, _ = extract_tls_matrix(monolithic)
        y = monolithic.labels("combined")
        model = RandomForestClassifier(
            n_estimators=8, random_state=0, n_jobs=1
        ).fit(X, y)
        expected = model.predict(X)
        for jobs in (1, 2):
            got = score_sharded(model, sharded, n_jobs=jobs)
            np.testing.assert_array_equal(got, expected)

    def test_fan_out_pickles_the_model_once(self, monolithic, sharded, monkeypatch):
        """Every task ships the one pickle, not the model: the model is
        pickled once per fan-out, whatever the shard count."""
        X, _ = extract_tls_matrix(monolithic)
        y = monolithic.labels("combined")
        model = RandomForestClassifier(n_estimators=8, random_state=0, n_jobs=1).fit(X, y)
        expected = score_sharded(model, sharded, n_jobs=1)
        pickled = []

        def getstate(self):
            pickled.append(type(self).__name__)
            return self.__dict__

        monkeypatch.setattr(RandomForestClassifier, "__getstate__", getstate, raising=False)
        got = score_sharded(model, sharded, n_jobs=2)
        assert sharded.n_shards > 2
        assert pickled == ["RandomForestClassifier"]
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_back_to_back_models_get_their_own_predictions(self, monolithic, sharded):
        """Workers keep the model they loaded by its pickle's digest: a
        second model through the same pool replaces it."""
        X, _ = extract_tls_matrix(monolithic)
        y = monolithic.labels("combined")
        models = [
            RandomForestClassifier(
                n_estimators=4, max_depth=2, random_state=seed, n_jobs=1
            ).fit(X, y)
            for seed in (1, 2)
        ]
        expected = [model.predict(X) for model in models]
        assert not np.array_equal(*expected)
        for model, want in zip(models + models[:1], expected + expected[:1]):
            np.testing.assert_array_equal(score_sharded(model, sharded, n_jobs=2), want)

    def test_each_worker_loads_the_model_once(self, monolithic, tmp_path):
        corpus = collect_corpus(
            "svc1", 16, seed=SEED, n_jobs=1, out=tmp_path / "c.shards", shard_size=2
        )
        X, _ = extract_tls_matrix(monolithic)
        model = RandomForestClassifier(
            n_estimators=8, random_state=7, n_jobs=1
        ).fit(X, monolithic.labels("combined"))
        with telemetry.tracing() as tracer:
            got = score_sharded(model, corpus, n_jobs=2)
        assert corpus.n_shards == 8
        assert 1 <= tracer.counters["fleet.model_loads"] <= 2
        X_corpus, _ = extract_tls_matrix(corpus)
        np.testing.assert_array_equal(got, model.predict(X_corpus))

    def test_unpicklable_model_is_scored_in_process(self, monolithic, sharded):
        X, _ = extract_tls_matrix(monolithic)
        y = monolithic.labels("combined")
        forest = RandomForestClassifier(n_estimators=8, random_state=0, n_jobs=1).fit(X, y)

        class Local:  # a local class does not pickle
            predict = staticmethod(lambda X: forest.predict(X))

        np.testing.assert_array_equal(
            score_sharded(Local(), sharded, n_jobs=2), forest.predict(X)
        )


class TestExperimentsIntegration:
    def test_sharded_get_corpus_equals_monolithic(self, tmp_path):
        """A small shard size changes only how the corpus is stored: the
        matrix and labels equal the default one-shard corpus's."""
        from repro.experiments.common import features_for, get_corpus

        with config.override(cache_dir=tmp_path / "mono", scale=0.01):
            mono = get_corpus("svc1")
            assert mono.n_shards == 1
            X_mono, _ = features_for(mono)
            y_mono = mono.labels("combined")
        with config.override(
            cache_dir=tmp_path / "shard", scale=0.01, shard_size=4
        ):
            store = get_store()
            store.reset_counters()
            sharded = get_corpus("svc1")
            assert sharded.n_shards > 1
            X_shard, _ = features_for(sharded)
            y_shard = sharded.labels("combined")
            cold = store.counter_snapshot()

            # Warm re-run touches only the manifest: zero recomputes,
            # zero shard materializations.
            store.reset_counters()
            store.clear_memory()
            warm_ds = get_corpus("svc1")
            warm_ds.drop_caches()
            X_warm, _ = features_for(warm_ds)
            warm = store.counter_snapshot()

        np.testing.assert_array_equal(X_shard, X_mono)
        np.testing.assert_array_equal(y_shard, y_mono)
        np.testing.assert_array_equal(X_warm, X_mono)
        assert cold["misses"] > 0
        assert warm["misses"] == 0
        assert warm_ds.counters["materialized"] == 0
