"""Smoke tests for the experiment drivers (tiny corpora).

Every driver must run end-to-end and return the documented structure.
These use explicit small corpora (not the cached paper-scale ones) so
the test suite stays fast and hermetic.
"""

import numpy as np
import pytest

from repro.collection.harness import collect_corpus
from repro.experiments import (
    ablations,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    generalization,
    interactions,
    netflow_tradeoff,
    overhead,
    table2,
    table3,
    table5,
)
from repro.experiments.common import corpus_size, format_table, get_corpus
from tests.records import record_bytes

#: SHA-256 of each generalization axis's result as canonical JSON, on
#: this module's corpora plus rtc1 and live1 corpora of 40 sessions
#: (seeds 404 and 505), pinned from the separate cross-service and
#: cross-application drivers before they became one.
GENERALIZATION_DIGESTS = {
    "services": "d82416859605ba8300e337b77460005429a969e3d42606a60aa18e818b063d88",
    "applications": "904c470d5cfba2a05065ea6d2db30341fea89ba1d162a52d949d2939d3248e84",
}

#: Manifest digest of ``collect_interactive_corpus("svc1", 6, seed=6)``
#: saved in shards of 4, pinned before the collector built its network
#: path from the scenario: the identity corpus keeps its bytes.
INTERACTIVE_IDENTITY_DIGEST = "28a869dddf25082cb5bd2647"


@pytest.fixture(scope="module")
def corpora():
    return {
        svc: collect_corpus(svc, 120, seed=50 + i)
        for i, svc in enumerate(("svc1", "svc2", "svc3"))
    }


class TestCommon:
    def test_corpus_size_scales(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert corpus_size("svc1") == round(2111 * 0.5)

    def test_scale_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        from repro.experiments.common import scale

        with pytest.raises(ValueError):
            scale()

    def test_get_corpus_memory_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        a = get_corpus("svc3", n_sessions=5, seed=9)
        b = get_corpus("svc3", n_sessions=5, seed=9)
        assert a is b

    def test_get_corpus_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.artifacts import get_store

        a = get_corpus("svc3", n_sessions=4, seed=10)
        get_store().clear_memory()
        b = get_corpus("svc3", n_sessions=4, seed=10)
        assert len(a) == len(b)
        assert (a.labels("combined") == b.labels("combined")).all()

    def test_retired_corpus_entry_is_rewritten_as_shards(
        self, tmp_path, monkeypatch
    ):
        """A ``corpus`` entry whose meta names a format-3 ``.json.gz``
        payload reads as a miss and is rewritten as a ``.shards``
        directory; the next call is a disk hit, and ``cache clear``
        removes the orphaned file."""
        import json

        from repro.artifacts import canonical_json, digest, fingerprint, get_store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = get_store()
        fp = fingerprint("corpus", {"service": "svc3", "n_sessions": 3, "seed": 12})
        key = digest(fp)
        store.stage_dir("corpus").mkdir(parents=True)
        orphan = store.stage_dir("corpus") / f"{key}.json.gz"
        orphan.write_bytes(b"a format-3 corpus")
        store.meta_path("corpus", key).write_text(
            canonical_json({"fingerprint": fp, "extension": ".json.gz"})
        )

        cold = get_corpus("svc3", n_sessions=3, seed=12)
        assert store.counter_snapshot()["stages"]["corpus"]["misses"] == 1
        meta = json.loads(store.meta_path("corpus", key).read_text())
        assert meta["extension"] == ".shards"
        assert (store.stage_dir("corpus") / f"{key}.shards" / "manifest.json").is_file()

        store.clear_memory()
        warm = get_corpus("svc3", n_sessions=3, seed=12)
        assert store.counter_snapshot()["stages"]["corpus"]["hits"] == 1
        assert [record_bytes(r) for r in warm] == [record_bytes(r) for r in cold]

        store.clear()
        assert not orphan.exists()

    def test_get_corpus_returns_the_lazy_corpus(self, tmp_path, monkeypatch):
        from repro.collection.dataset import Dataset

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = get_corpus("svc3", n_sessions=3, seed=12)
        assert isinstance(corpus, Dataset) and corpus.manifest_digest is not None
        assert corpus.root.parent == tmp_path / "artifacts" / "corpus"
        assert not list(tmp_path.glob(".corpus-staging-*"))

    def test_in_memory_corpus_entry_loads_lazily(self, tmp_path, monkeypatch):
        """An entry written by ``Dataset.save`` at the store's payload
        path (how in-memory corpora were kept) is a disk hit that
        returns the lazy corpus, under an unchanged key."""
        from repro.artifacts import canonical_json, digest, fingerprint, get_store
        from repro.collection.dataset import Dataset

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = get_store()
        fp = fingerprint("corpus", {"service": "svc3", "n_sessions": 3, "seed": 12})
        key = digest(fp)
        stored = collect_corpus("svc3", 3, seed=12)
        stored.save(store.stage_dir("corpus") / f"{key}.shards")
        store.meta_path("corpus", key).write_text(
            canonical_json({"fingerprint": fp, "extension": ".shards"})
        )

        corpus = get_corpus("svc3", n_sessions=3, seed=12)
        assert store.counter_snapshot()["stages"]["corpus"] == {
            "memory_hits": 0, "hits": 1, "misses": 0,
        }
        assert isinstance(corpus, Dataset) and corpus.root is not None
        assert corpus._artifact_digest == key
        assert [record_bytes(r) for r in corpus] == [
            record_bytes(r) for r in stored
        ]

    def test_failed_build_leaves_the_cache_root_as_found(
        self, tmp_path, monkeypatch
    ):
        from repro import config
        from repro.collection import harness

        def broken(*args, **kwargs):
            raise RuntimeError("simulator failed")

        monkeypatch.setattr(harness, "collect_records", broken)
        (tmp_path / "keep.txt").write_text("foreign")
        before = sorted(p.name for p in tmp_path.rglob("*"))
        for shard_size in (512, 2):
            with config.override(cache_dir=tmp_path, jobs=1, shard_size=shard_size):
                with pytest.raises(RuntimeError, match="simulator failed"):
                    get_corpus("svc3", n_sessions=4, seed=12)
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    def test_format_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["3", "4"]])
        assert "bb" in text
        assert len(text.splitlines()) == 4


class TestDrivers:
    def test_fig2(self, corpora):
        result = fig2.run(corpora["svc1"])
        assert result["mean_http_per_tls"] > 1.0
        assert result["sample_tls_intervals"]

    def test_fig3(self, corpora):
        result = fig3.run(corpora)
        assert set(result["duration_bucket_shares"]) == {"0-1", "1-2", "2-5", "5-20"}
        assert abs(sum(result["duration_bucket_shares"].values()) - 1.0) < 0.05

    def test_fig4(self, corpora):
        result = fig4.run(corpora)
        for target in ("rebuffering", "quality", "combined"):
            for svc, dist in result[target].items():
                assert len(dist) == 3
                assert abs(sum(dist) - 1.0) < 1e-9

    def test_fig5_single_service(self, corpora):
        result = fig5.run_service(corpora["svc1"], targets=("combined",), n_estimators=15)
        assert 0.0 <= result["combined"]["accuracy"] <= 1.0
        assert result["combined"]["confusion"].sum() == len(corpora["svc1"])

    def test_table2_reuses_fig5(self, corpora):
        fig5_result = fig5.run_service(
            corpora["svc1"], targets=("combined",), n_estimators=15
        )
        result = table2.run(fig5_result=fig5_result)
        assert result["row_percent"].shape == (3, 3)
        assert 0.0 <= result["neighbour_error_share"] <= 1.0

    def test_table3_feature_counts(self, corpora):
        result = table3.run_service(corpora["svc3"])
        assert result["SL"]["n_features"] == 4
        assert result["SL+TS"]["n_features"] == 22
        assert result["SL+TS+Temporal"]["n_features"] == 38

    def test_fig6(self, corpora):
        result = fig6.run(corpora, top_k=5)
        for svc, r in result["per_service"].items():
            assert len(r["top_features"]) == 5
            assert all(imp >= 0 for imp in r["top_importances"])
        assert isinstance(result["common_features"], list)

    def test_fig7_panel(self, corpora):
        panel = fig7.run_panel(corpora["svc1"], "CUM_DL_60s")
        assert panel["n_matched"] >= 0
        assert set(panel["per_class"]) == {"low", "medium", "high"}

    def test_fig7_unknown_feature(self, corpora):
        with pytest.raises(ValueError):
            fig7.run_panel(corpora["svc1"], "NOT_A_FEATURE")

    def test_table5(self):
        result = table5.run("svc1", n_streams=2, sessions_per_stream=6)
        assert result["confusion"].shape == (2, 2)
        assert result["n_sessions"] == 12

    def test_overhead(self, corpora):
        result = overhead.run(corpora["svc1"])
        assert result["record_ratio"] > 10
        assert result["tls_extract_seconds"] > 0

    def test_overhead_holds_one_packet_trace_at_a_time(self):
        # Memory must not grow with the corpus: the traced peak of run()
        # stays within a small multiple of the largest single trace's
        # synthesis peak, for a corpus and a 4x larger one.  Holding
        # every trace at once measured 1.6x (6 sessions) and 2.5x (24).
        import tracemalloc

        from repro.collection.dataset import Dataset
        from repro.collection.harness import CollectionConfig

        config = CollectionConfig(min_watch_s=30.0, max_watch_s=120.0)
        sessions = collect_corpus("svc1", 24, seed=5, config=config, n_jobs=1).sessions
        synthesis_peaks = []
        for i, record in enumerate(sessions):
            tracemalloc.start()
            trace = record.packet_trace(seed=i)
            synthesis_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            del trace
        for n in (6, 24):
            dataset = Dataset(service="svc1", sessions=sessions[:n])
            largest = max(synthesis_peaks[:n])
            tracemalloc.start()
            try:
                result = overhead.run(dataset)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * largest, (n, peak, largest)
            assert result["n_sessions"] == n

    def test_ablation_interval_grids(self, corpora):
        result = ablations.interval_ablation(corpora["svc3"])
        assert set(result) == set(ablations.INTERVAL_GRIDS)

    def test_netflow_tradeoff_service(self, corpora):
        result = netflow_tradeoff.run_service(corpora["svc3"])
        assert set(result) == {"tls", "netflow", "packets"}
        assert (
            result["packets"]["records_per_session"]
            > result["tls"]["records_per_session"]
        )

    def test_flow_stage_keeps_each_sessions_record_count(self, tmp_path):
        """A stored corpus's flow stage holds the record count of every
        session from its one export, and a disk hit returns the same."""
        from repro import config
        from repro.artifacts import get_store
        from repro.experiments.common import flow_features_for
        from repro.netflow.exporter import export_flow_table
        from repro.netflow.features import extract_flow_matrix

        with config.override(cache_dir=tmp_path):
            stored = get_corpus("svc3", n_sessions=12, seed=9)
            X, counts = flow_features_for(stored)
            get_store().clear_memory()
            X_disk, counts_disk = flow_features_for(stored)
        expected = np.concatenate(
            [export_flow_table(*block).counts for block in stored.transfer_blocks()]
        )
        assert np.array_equal(counts, expected)
        assert np.array_equal(counts_disk, expected)
        assert X.tobytes() == X_disk.tobytes() == extract_flow_matrix(stored)[0].tobytes()

    def test_generalization_matrix(self, corpora):
        """Both axes equal, bit for bit, what the separate drivers
        computed before they merged."""
        import hashlib
        import json

        from repro.has.live import LIVE_SERVICES
        from repro.rtc.model import RTC_SERVICES

        applications = {
            "has": corpora["svc1"],
            "rtc": collect_corpus(RTC_SERVICES["rtc1"], 40, seed=404),
            "live": collect_corpus(LIVE_SERVICES["live1"], 40, seed=505),
        }
        result = generalization.run(
            {"services": corpora, "applications": applications}
        )
        assert set(result["services"]["tls"]["svc1"]) == {"svc1", "svc2", "svc3"}
        by_axis = {
            "services": result["services"]["tls"],
            "applications": result["applications"],
        }
        digests = {
            axis: hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
            for axis, r in by_axis.items()
        }
        assert digests == GENERALIZATION_DIGESTS

    def test_interactions_protocols(self, corpora):
        interactive = interactions.collect_interactive_corpus("svc1", 100, seed=5)
        result = interactions.run(
            "svc1", clean=corpora["svc1"], interactive=interactive
        )
        assert set(result) >= {
            "clean->clean",
            "clean->interactive",
            "interactive->interactive",
        }
        assert any(s.labels.combined is not None for s in interactive)

    def test_interactive_corpus_is_a_stored_stage(
        self, corpora, tmp_path, monkeypatch
    ):
        """Without a corpus passed in, the driver collects its
        interactive corpus through the corpus stage, stored as a shard
        directory."""
        from repro import config
        from repro.artifacts import get_store

        monkeypatch.setattr(interactions, "corpus_size", lambda service: 40)
        with config.override(cache_dir=tmp_path):
            result = interactions.run("svc1", clean=corpora["svc1"])
            stages = get_store().counter_snapshot()["stages"]
        assert stages["corpus-interactive"]["misses"] == 1
        stored = tmp_path / "artifacts" / "corpus-interactive"
        assert len(list(stored.glob("*.shards/manifest.json"))) == 1
        assert set(result) >= {"clean->interactive", "interactive->interactive"}

    def test_interactive_identity_corpus_keeps_its_bytes(self, tmp_path):
        ds = interactions.collect_interactive_corpus("svc1", 6, seed=6)
        saved = ds.save(tmp_path / "interactive.shards", shard_size=4)
        assert saved.manifest_digest == INTERACTIVE_IDENTITY_DIGEST

    def test_interactive_corpus_needs_a_player_profile(self):
        with pytest.raises(ValueError, match="'rtc1' has no player"):
            interactions.collect_interactive_corpus("rtc1", 1, seed=6)
        ds = interactions.collect_interactive_corpus("live1", 1, seed=6)
        assert (ds.service, ds.workload) == ("live1", "live")

    def test_interactive_corpus_follows_its_scenario(self):
        from repro.collection.harness import CollectionConfig

        ds = interactions.collect_interactive_corpus(
            "svc1", 3, seed=6, config=CollectionConfig(scenario="hostile")
        )
        assert ds.scenario == "hostile"
        assert [record.scenario for record in ds] == ["hostile"] * 3

    def test_interactive_corpus_has_interactions(self):
        """The interactive harness must actually pause/seek."""
        ds = interactions.collect_interactive_corpus("svc1", 25, seed=6)
        # Interactions change wire behaviour; check play < wall time on
        # average more than a clean corpus would show.
        ratios = np.array([s.play_time / max(s.session_end, 1e-9) for s in ds])
        assert ratios.mean() < 0.98


class TestFig6ImportanceMethods:
    def test_permutation_method(self, corpora):
        from repro.experiments import fig6 as fig6_mod

        result = fig6_mod.run_service(
            corpora["svc3"], top_k=5, method="permutation"
        )
        assert result["method"] == "permutation"
        assert len(result["top_features"]) == 5

    def test_unknown_method_rejected(self, corpora):
        from repro.experiments import fig6 as fig6_mod

        with pytest.raises(ValueError):
            fig6_mod.run_service(corpora["svc3"], method="shapley")

    def test_gini_and_permutation_overlap(self, corpora):
        """The two importance flavours should broadly agree on top
        features (at least one shared in the top 5)."""
        from repro.experiments import fig6 as fig6_mod

        gini = set(fig6_mod.run_service(corpora["svc1"], top_k=5)["top_features"])
        perm = set(
            fig6_mod.run_service(
                corpora["svc1"], top_k=5, method="permutation"
            )["top_features"]
        )
        assert gini & perm


class TestRealtimeDriver:
    def test_prefix_features_window_none_is_full(self, corpora):
        from repro.experiments.realtime import prefix_features

        record = corpora["svc1"][0]
        full = prefix_features(record.tls_transactions, None)
        assert full is not None and full.shape == (38,)

    def test_prefix_features_unobservable_window(self, corpora):
        from repro.experiments.realtime import prefix_features

        record = corpora["svc1"][0]
        assert prefix_features(record.tls_transactions, 0.001) is None

    def test_run_structure(self, corpora):
        from repro.experiments import realtime as rt

        result = rt.run(corpora["svc1"])
        assert "full" in result
        assert result["full"]["coverage"] == 1.0


class TestStartupDriver:
    def test_category_thresholds(self):
        from repro.experiments.startup import startup_category

        assert startup_category(1.0) == 2
        assert startup_category(5.0) == 2
        assert startup_category(10.0) == 1
        assert startup_category(30.0) == 0
        with pytest.raises(ValueError):
            startup_category(-1.0)

    def test_run_structure(self, corpora):
        from repro.experiments import startup as su

        result = su.run(corpora["svc1"])
        assert 0 <= result["accuracy"] <= 1
        assert abs(sum(result["distribution"]) - 1.0) < 1e-9


class TestAppDesignDriver:
    def test_variants_structure(self):
        from repro.experiments.appdesign import design_variants

        variants = design_variants()
        assert set(variants) == {"baseline", "bola", "mono"}
        mono = variants["mono"]
        assert mono.max_requests_per_connection >= 10**6
        assert not mono.separate_audio
        assert mono.host_model.edges_per_session == 1

    def test_run_small(self):
        from repro.experiments import appdesign

        result = appdesign.run(n_sessions=60, seed=9)
        assert set(result) == {"baseline", "bola", "mono"}
        assert (
            result["mono"]["tls_per_session"]
            < result["baseline"]["tls_per_session"]
        )
