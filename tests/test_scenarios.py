"""Scenario registry, collection integration, and label round-trips."""

import json

import numpy as np
import pytest

from repro import config
from repro.collection.harness import CollectionConfig, collect_corpus
from repro.collection.dataset import Dataset
from repro.net.scenarios import (
    UnknownScenarioError,
    all_scenarios,
    customize,
    get_scenario,
    resolve_scenario,
    scenario_names,
)
from tests.records import record_arrays, record_bytes


class TestRegistry:
    def test_identity_is_first(self):
        names = scenario_names()
        assert names[0] == "identity"
        assert list(names[1:]) == sorted(names[1:])

    def test_all_builtins_registered(self):
        names = set(scenario_names())
        assert {
            "identity",
            "policed-2mbps",
            "policed-512kbps",
            "shaped-2mbps",
            "droplist-early",
            "reorder-50ms",
            "bufferbloat-1mb",
            "hostile",
        } <= names

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(UnknownScenarioError) as exc:
            get_scenario("policed-3mbps")
        message = str(exc.value)
        assert "policed-3mbps" in message
        assert "identity" in message and "policed-2mbps" in message

    def test_resolve_scenario_normalizes(self):
        assert resolve_scenario(None).name == "identity"
        assert resolve_scenario("").name == "identity"
        assert resolve_scenario("  ").name == "identity"
        assert resolve_scenario("hostile").name == "hostile"
        sc = get_scenario("hostile")
        assert resolve_scenario(sc) is sc

    def test_scenarios_are_frozen_and_picklable(self):
        import pickle

        for sc in all_scenarios():
            clone = pickle.loads(pickle.dumps(sc))
            assert clone == sc

    def test_identity_builds_a_plain_link(self):
        from repro.net.link import Link
        from repro.net.bandwidth import fcc_trace

        trace = fcc_trace(np.random.default_rng(0))
        built = get_scenario("identity").build_path(trace)
        assert type(built) is Link
        assert not hasattr(built, "impair")

    def test_impaired_scenarios_build_fresh_stages(self):
        from repro.net.bandwidth import fcc_trace

        trace = fcc_trace(np.random.default_rng(0))
        sc = get_scenario("hostile")
        a, b = sc.build_path(trace), sc.build_path(trace)
        assert a.scenario == "hostile"
        assert len(a.stages) == 3
        assert all(x is not y for x, y in zip(a.stages, b.stages))


class TestCustomize:
    def test_policer_override(self):
        sc = customize("policed-2mbps", police_rate=1_000_000)
        assert sc.name == "policed-2mbps[rate_bps=1000000.0]"
        assert dict(sc.stages[0].params)["rate_bps"] == 1_000_000.0
        # Untouched params survive the merge.
        assert dict(sc.stages[0].params)["burst_bytes"] == 256_000

    def test_queue_override(self):
        sc = customize("bufferbloat-1mb", queue_bytes=200_000)
        assert dict(sc.stages[0].params)["capacity_bytes"] == 200_000

    def test_no_matching_stage_is_an_error(self):
        with pytest.raises(ValueError, match="no policer or shaper stage"):
            customize("reorder-50ms", police_rate=1_000_000)
        with pytest.raises(ValueError, match="no queue stage"):
            customize("policed-2mbps", queue_bytes=100)

    def test_no_overrides_returns_base(self):
        assert customize("hostile") is get_scenario("hostile")

    def test_customized_scenario_collects(self):
        sc = customize("policed-2mbps", police_rate=500_000, police_burst=50_000)
        ds = collect_corpus("svc1", 3, seed=1, config=CollectionConfig(scenario=sc))
        assert ds.scenario == sc.name
        assert ds.labels("policed").sum() > 0


class TestCollectionIntegration:
    def test_impaired_corpus_degrades_qoe(self):
        identity = collect_corpus("svc1", 8, seed=7)
        policed = collect_corpus(
            "svc1", 8, seed=7, config=CollectionConfig(scenario="policed-512kbps")
        )
        # The policer can only slow sessions down, never speed them up.
        assert policed.labels("combined").mean() <= identity.labels(
            "combined"
        ).mean()
        assert policed.labels("policed").any()
        assert not identity.labels("policed").any()

    def test_worker_count_invariance_for_impaired_corpora(self):
        cc = CollectionConfig(scenario="hostile")
        seq = collect_corpus("svc1", 6, seed=3, config=cc, n_jobs=1)
        par = collect_corpus("svc1", 6, seed=3, config=cc, n_jobs=3)
        assert [record_bytes(r) for r in seq.sessions] == [
            record_bytes(r) for r in par.sessions
        ]

    def test_session_trace_records_scenario_and_stats(self):
        ds = collect_corpus(
            "svc1", 2, seed=5, config=CollectionConfig(scenario="policed-512kbps")
        )
        rec = ds.sessions[0]
        assert rec.scenario == "policed-512kbps"

    def test_determinism_no_rng_consumed_by_stages(self):
        # Identity and impaired runs share per-session seed streams:
        # the request *sequence* (sizes, order) must be identical, only
        # timings/loss differ.  Guard: same transaction count per
        # session would not hold if stages consumed session RNG.
        identity = collect_corpus("svc1", 4, seed=11)
        shaped = collect_corpus(
            "svc1", 4, seed=11, config=CollectionConfig(scenario="shaped-2mbps")
        )
        a = collect_corpus(
            "svc1", 4, seed=11, config=CollectionConfig(scenario="shaped-2mbps")
        )
        assert [record_bytes(r) for r in shaped.sessions] == [
            record_bytes(r) for r in a.sessions
        ]  # reproducible
        assert len(identity.sessions) == len(shaped.sessions)


class TestRoundTrips:
    def make_policed(self, n=4):
        return collect_corpus(
            "svc1", n, seed=9, config=CollectionConfig(scenario="policed-512kbps")
        )

    def test_dataset_save_roundtrip_preserves_scenario_and_policed(self, tmp_path):
        ds = self.make_policed()
        ds.save(tmp_path / "policed.shards")
        loaded = Dataset.load(tmp_path / "policed.shards")
        assert loaded.scenario == "policed-512kbps"
        np.testing.assert_array_equal(
            loaded.labels("policed"), ds.labels("policed")
        )
        assert [record_bytes(r) for r in loaded] == [
            record_bytes(r) for r in ds.sessions
        ]

    def test_identity_shard_has_no_new_keys(self):
        # The digest-stability contract: identity corpora serialize
        # exactly as before the refactor — no scenario member, no
        # policed label column.
        ds = collect_corpus("svc1", 2, seed=9)
        for record in ds.sessions:
            arrays = record_arrays(record)
            assert "scenario" not in arrays
            assert "label_policed" not in arrays

    def test_format4_roundtrip_preserves_scenario_and_policed(self, tmp_path):
        from repro.collection.dataset import Dataset
        from repro.collection.shards import save_sharded

        ds = self.make_policed(5)
        out = save_sharded(ds, tmp_path / "shards", shard_size=2)
        assert out.scenario == "policed-512kbps"
        loaded = Dataset.load(tmp_path / "shards")
        assert loaded.scenario == "policed-512kbps"
        np.testing.assert_array_equal(
            loaded.labels("policed"), ds.labels("policed")
        )
        manifest = json.loads((tmp_path / "shards" / "manifest.json").read_text())
        assert manifest["scenario"] == "policed-512kbps"

    def test_identity_manifest_has_no_scenario_key(self, tmp_path):
        from repro.collection.shards import save_sharded

        ds = collect_corpus("svc1", 3, seed=9)
        save_sharded(ds, tmp_path / "shards", shard_size=2)
        manifest = json.loads((tmp_path / "shards" / "manifest.json").read_text())
        assert "scenario" not in manifest

    def test_fleet_collection_carries_scenario(self, tmp_path):
        cc = CollectionConfig(scenario="policed-512kbps")
        sd = collect_corpus(
            "svc1", 5, seed=9, config=cc, n_jobs=2,
            out=tmp_path / "fleet", shard_size=2,
        )
        assert sd.scenario == "policed-512kbps"
        assert sd.labels("policed").sum() > 0
        # Bit-identity across worker counts and task shapes for impaired
        # corpora: per-shard tasks at jobs 1 and 2, chunks at jobs 3.
        for jobs in (1, 3):
            other = collect_corpus(
                "svc1", 5, seed=9, config=cc, n_jobs=jobs,
                out=tmp_path / f"fleet{jobs}", shard_size=2,
            )
            assert other.manifest_digest == sd.manifest_digest

    def test_policed_labels_survive_mixed_shards(self, tmp_path):
        from repro.collection.dataset import Dataset
        from repro.collection.shards import save_sharded

        # A corpus where some shards have zero policed sessions still
        # round-trips: absent label_policed members decode as zeros.
        ds = collect_corpus("svc1", 4, seed=9)
        save_sharded(ds, tmp_path / "clean", shard_size=2)
        loaded = Dataset.load(tmp_path / "clean")
        np.testing.assert_array_equal(
            loaded.labels("policed"), np.zeros(4, dtype=np.int64)
        )


class TestLabels:
    def test_policed_is_not_a_distribution_target(self):
        from repro.qoe.labels import TARGETS

        assert "policed" not in TARGETS  # serialized keys must not move

    def test_labels_get_policed(self):
        from repro.qoe.labels import SessionLabels

        labels = SessionLabels(
            rebuffering_ratio=0.1, rebuffering=1, quality=2, combined=1,
            policed=1,
        )
        assert labels.get("policed") == 1
        with pytest.raises(ValueError, match="policed"):
            labels.get("nope")

    def test_policed_validation(self):
        from repro.qoe.labels import SessionLabels

        with pytest.raises(ValueError):
            SessionLabels(
                rebuffering_ratio=0.0, rebuffering=1, quality=1, combined=1,
                policed=2,
            )


class TestExperimentPlumbing:
    def test_scenario_corpus_stage_is_distinct(self, tmp_path):
        from repro.experiments.common import get_corpus

        with config.override(cache_dir=tmp_path / "cache"):
            clean = get_corpus("svc1", n_sessions=3, seed=2)
            impaired = get_corpus(
                "svc1", n_sessions=3, seed=2, scenario="policed-512kbps"
            )
            assert clean._artifact_digest != impaired._artifact_digest
            assert impaired.scenario == "policed-512kbps"
            # Warm lookups hit for both, independently.
            again = get_corpus(
                "svc1", n_sessions=3, seed=2, scenario="policed-512kbps"
            )
            assert again._artifact_digest == impaired._artifact_digest

    def test_api_collect_corpus_scenario(self):
        import repro

        ds = repro.collect_corpus(
            "svc1", n_sessions=3, seed=2, scenario="policed-512kbps"
        )
        assert ds.scenario == "policed-512kbps"
        with pytest.raises(UnknownScenarioError):
            repro.collect_corpus("svc1", n_sessions=1, scenario="nope")

    def test_api_list_scenarios(self):
        import repro

        entries = repro.list_scenarios()
        assert entries[0]["name"] == "identity"
        assert all(
            {"name", "title", "description", "pipeline"} <= set(e) for e in entries
        )

    def test_back_to_back_stream_scenario(self):
        from repro.sessions.workload import back_to_back_stream

        clean = back_to_back_stream("svc1", 2, seed=4)
        hostile = back_to_back_stream("svc1", 2, seed=4, scenario="hostile")
        assert len(clean.transactions) > 0
        # Same workload, slower network: sessions take at least as long.
        assert hostile.offsets[1] >= clean.offsets[1]
