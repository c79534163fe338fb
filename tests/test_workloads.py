"""Tests for the workload registry and the RTC / live-HAS models.

The registry contract mirrors the scenario engine's: one resolution
chain (explicit argument > ``CollectionConfig.workload`` >
``REPRO_WORKLOAD``), unknown names fail before any session is
simulated, and the default ``has`` workload is byte-identical to the
pre-registry pipeline (pinned separately by
``tests/test_golden_identity.py``).  The model tests pin the physics
the new workloads exist for: RTC rate adaptation backs off and freezes
under a bandwidth step-down; live-HAS's shallow buffer rebuffers
through an outage a deep on-demand buffer rides out.
"""

import json
import warnings

import numpy as np
import pytest

import repro.api as api
from repro.collection.dataset import Dataset
from repro.collection.harness import (
    CollectionConfig,
    collect_corpus,
    collect_session,
    resolve_collection_workload,
)
from repro.config import override
from repro.has.live import LIVE_SERVICES, get_live_service
from repro.net.bandwidth import BandwidthTrace, TraceFamily
from repro.rtc.collect import collect_rtc_session
from repro.rtc.model import RTC_SERVICES, RtcCallSpec, RtcProfile
from repro.workloads import (
    UnknownWorkloadError,
    Workload,
    get_workload,
    resolve_workload,
    workload_names,
)
from tests.records import record_arrays, record_bytes


def step_trace(high_bps, low_bps, step_at, duration, recover_at=None):
    """``high`` until ``step_at``, then ``low`` (optionally back up)."""
    times = [0.0, step_at]
    bands = [high_bps, low_bps]
    if recover_at is not None:
        times.append(recover_at)
        bands.append(high_bps)
    return BandwidthTrace(
        times=np.array(times),
        bandwidth_bps=np.array(bands, dtype=float),
        duration=duration,
        family=TraceFamily.FCC,
    )


class TestRegistry:
    def test_names_default_first(self):
        names = workload_names()
        assert names[0] == "has"
        assert set(names) >= {"has", "live", "rtc"}
        assert names[1:] == sorted(names[1:])

    def test_get_workload_case_insensitive(self):
        assert get_workload("RTC").name == "rtc"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownWorkloadError, match="expected one of"):
            get_workload("quic-gaming")

    def test_resolve_chain(self):
        assert resolve_workload(None).name == "has"
        assert resolve_workload("  ").name == "has"
        assert resolve_workload("live").name == "live"
        wl = get_workload("rtc")
        assert resolve_workload(wl) is wl
        with pytest.raises(TypeError, match="expected workload name"):
            resolve_workload(42)

    def test_profile_lookup_error_names_choices(self):
        with pytest.raises(ValueError, match=r"expected one of \['rtc1'\]"):
            get_workload("rtc").get_profile("svc1")

    def test_workloads_picklable(self):
        import pickle

        for name in workload_names():
            wl = pickle.loads(pickle.dumps(get_workload(name)))
            assert isinstance(wl, Workload) and wl.name == name


class TestResolutionPrecedence:
    def test_argument_beats_config_beats_env(self):
        config = CollectionConfig(workload="live")
        assert resolve_collection_workload(config, "rtc").name == "rtc"
        assert resolve_collection_workload(config).name == "live"
        with override("test", workload="rtc"):
            assert resolve_collection_workload(None).name == "rtc"
            assert resolve_collection_workload(config).name == "live"
        assert resolve_collection_workload(None).name == "has"

    def test_unknown_workload_fails_before_collection(self):
        with pytest.raises(UnknownWorkloadError):
            collect_corpus("svc1", 2, seed=0, workload="nope")

    def test_profile_object_carries_its_workload(self):
        ds = collect_corpus(RTC_SERVICES["rtc1"], 2, seed=0, n_jobs=1)
        assert ds.workload == "rtc"
        ds = collect_corpus(LIVE_SERVICES["live1"], 2, seed=0, n_jobs=1)
        assert ds.workload == "live"

    def test_facade_workload_argument(self):
        ds = api.collect_corpus(
            "rtc1", n_sessions=2, seed=1, workload="rtc", jobs=1
        )
        assert ds.workload == "rtc"
        assert ds.service == "rtc1"
        with pytest.raises(ValueError, match="unknown profile"):
            api.collect_corpus("svc1", n_sessions=2, workload="rtc", jobs=1)

    def test_list_workloads_facade(self):
        entries = api.list_workloads()
        by_name = {e["name"]: e for e in entries}
        assert entries[0]["name"] == "has"
        assert "rtc1" in by_name["rtc"]["profiles"]
        assert "live1" in by_name["live"]["profiles"]


class TestRtcModel:
    def _call(self, duration_s=600.0, motion=1.0):
        return RtcCallSpec(call_id="call-test", duration_s=duration_s, motion=motion)

    def test_bandwidth_step_down_drops_rung_and_freezes(self):
        """Halving the link mid-call must back the send rate off, fall
        down the resolution ladder, and freeze at least once."""
        profile = RTC_SERVICES["rtc1"]
        trace = step_trace(3_000_000.0, 150_000.0, step_at=60.0, duration=300.0)
        out = collect_rtc_session(
            profile, self._call(), np.random.default_rng(0),
            trace=trace, duration_s=150.0,
        )
        early = [e.quality for e in out.play_events if e.start < 50.0]
        late = [e.quality for e in out.play_events if e.start > 100.0]
        assert early and late
        assert max(early) > max(late)
        assert out.app_stats["freeze_count"] >= 1
        assert out.app_stats["final_rate_bps"] <= 400_000.0
        assert out.app_stats["final_rate_bps"] >= profile.min_rate_bps

    def test_steady_link_climbs_to_top_rung(self):
        profile = RTC_SERVICES["rtc1"]
        trace = step_trace(6_000_000.0, 6_000_000.0, step_at=1.0, duration=300.0)
        out = collect_rtc_session(
            profile, self._call(), np.random.default_rng(1),
            trace=trace, duration_s=120.0,
        )
        top = len(profile.ladder) - 1
        late = [e.quality for e in out.play_events if e.start > 60.0]
        assert late and max(late) == top
        # TCP slow start can nick the first tick or two while the rate
        # is still climbing; steady state must be freeze-free.
        assert all(s.start < 30.0 for s in out.stalls)
        assert out.stall_time < 1.0

    def test_rtc_labels_flow_through_untouched_qoe(self):
        from repro.qoe.labels import compute_labels

        profile = RTC_SERVICES["rtc1"]
        trace = step_trace(2_500_000.0, 120_000.0, step_at=40.0, duration=300.0)
        out = collect_rtc_session(
            profile, self._call(), np.random.default_rng(2),
            trace=trace, duration_s=120.0,
        )
        labels = compute_labels(out, profile)
        # Class 0 is "low QoE": a call starved to 120 kbps must land
        # in the degraded rebuffering and combined classes.
        assert labels.rebuffering_ratio > 0.1
        assert labels.rebuffering == 0
        assert labels.combined == 0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            RtcCallSpec(call_id="x", duration_s=-1.0, motion=1.0)
        profile = RTC_SERVICES["rtc1"]
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(profile, tick_s=0.0)


class TestLiveModel:
    def test_outage_rebuffers_live_but_not_on_demand(self):
        """A 30 s outage is longer than live1's 6 s buffer target but
        well inside svc1's 240 s one: live stalls, on-demand doesn't."""
        from repro.has.services import get_service

        trace = step_trace(
            20_000_000.0, 80_000.0, step_at=60.0, duration=600.0, recover_at=90.0
        )
        live = get_live_service("live1")
        rng = np.random.default_rng(3)
        video = live.make_catalog(seed=0).sample(rng)
        live_out = collect_session(
            live, video, rng, trace=trace, watch_duration_s=150.0
        )
        assert live_out.stall_time > 0.0

        svc = get_service("svc1")
        rng = np.random.default_rng(3)
        video = svc.make_catalog(seed=0).sample(rng)
        vod_out = collect_session(
            svc, video, rng, trace=trace, watch_duration_s=150.0
        )
        assert vod_out.stall_time == 0.0

    def test_live_profiles_have_short_segments_and_shallow_buffers(self):
        for name, profile in LIVE_SERVICES.items():
            assert profile.segment_duration_s == 2.0, name
            assert profile.buffer_capacity_s <= 6.0, name
            assert profile.workload == "live"


class TestCorpusDeterminismAndFormats:
    def test_rtc_corpus_bit_identical_across_workers(self):
        base = collect_corpus("rtc1", 6, seed=11, workload="rtc", n_jobs=1)
        for jobs in (2, 4):
            other = collect_corpus("rtc1", 6, seed=11, workload="rtc", n_jobs=jobs)
            assert len(other) == len(base)
            for ra, rb in zip(base, other):
                assert record_bytes(ra) == record_bytes(rb)

    def test_workload_round_trips_format4(self, tmp_path):
        collect_corpus(
            "live1", 5, seed=3, workload="live", n_jobs=1,
            out=tmp_path / "shards", shard_size=2,
        )
        manifest = json.loads((tmp_path / "shards" / "manifest.json").read_text())
        assert manifest["workload"] == "live"
        loaded = Dataset.load(tmp_path / "shards")
        assert loaded.workload == "live"
        assert all(r.workload == "live" for r in loaded)

    def test_workload_round_trips_dataset_save(self, tmp_path):
        ds = collect_corpus("rtc1", 3, seed=5, workload="rtc", n_jobs=1)
        assert all(str(record_arrays(r)["workload"][0]) == "rtc" for r in ds)
        ds.save(tmp_path / "rtc.shards")
        loaded = Dataset.load(tmp_path / "rtc.shards")
        assert loaded.workload == "rtc"
        assert isinstance(loaded.profile, RtcProfile)

    def test_default_corpora_omit_workload_key(self, tmp_path):
        ds = collect_corpus("svc3", 2, seed=1, n_jobs=1)
        assert ds.workload == "has"
        assert "workload" not in record_arrays(ds.sessions[0])
        collect_corpus(
            "svc3", 2, seed=1, n_jobs=1, out=tmp_path / "shards", shard_size=2
        )
        manifest = json.loads((tmp_path / "shards" / "manifest.json").read_text())
        assert "workload" not in manifest


class TestFeaturization:
    def test_agnostic_names_are_a_tls_subset(self):
        from repro.features.tls_features import (
            agnostic_feature_names,
            feature_names,
            select_features,
        )

        full = feature_names()
        agnostic = agnostic_feature_names()
        assert set(agnostic) < set(full)
        assert len(agnostic) == 22
        assert not any("cum" in n for n in agnostic)

        X = np.arange(2 * len(full), dtype=float).reshape(2, len(full))
        sub = select_features(X, full, agnostic)
        assert sub.shape == (2, len(agnostic))
        cols = [full.index(n) for n in agnostic]
        assert np.array_equal(sub, X[:, cols])
        with pytest.raises(ValueError, match="not in this matrix"):
            select_features(X, agnostic, full)


class TestDeprecationShims:
    def test_deep_import_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.has.services import get_service  # noqa: F401
