"""Tests for repro.has.player (end-to-end session simulation)."""

import numpy as np
import pytest

from repro.has.player import PlayerSession
from repro.net.bandwidth import BandwidthTrace, TraceFamily
from repro.net.link import Link
from repro.net.tcp import TcpParams
from repro.tlsproxy.records import ResourceType
from repro.workloads import get_profile


def flat_trace(bps, duration=1400.0):
    return BandwidthTrace(
        times=np.array([0.0]),
        bandwidth_bps=np.array([bps]),
        duration=duration,
        family=TraceFamily.FCC,
    )


def params_factory(rng):
    return TcpParams(rtt_s=0.04, loss_rate=0.001)


def run_session(service="svc1", bps=6e6, watch=120.0, seed=0, video_idx=0):
    profile = get_profile(service)
    catalog = profile.make_catalog(seed=1)
    return PlayerSession(
        profile=profile,
        video=catalog[video_idx],
        link=Link(trace=flat_trace(bps)),
        rng=np.random.default_rng(seed),
        watch_duration_s=watch,
        tcp_params_factory=params_factory,
    ).run()


class TestPlayerSession:
    def test_rejects_nonpositive_watch(self):
        profile = get_profile("svc1")
        catalog = profile.make_catalog()
        with pytest.raises(ValueError):
            PlayerSession(
                profile,
                catalog[0],
                Link(trace=flat_trace(1e6)),
                np.random.default_rng(0),
                watch_duration_s=0.0,
                tcp_params_factory=params_factory,
            )

    def test_session_ends_at_watch_duration(self):
        trace = run_session(watch=90.0)
        assert trace.session_end <= 90.0 + 1e-9
        assert trace.session_end > 60.0

    def test_session_plays_most_of_watch_window_on_good_network(self):
        trace = run_session(bps=20e6, watch=120.0)
        assert trace.play_time > 100.0
        assert trace.stall_time == 0.0

    def test_session_contains_control_and_media_transactions(self):
        trace = run_session()
        types = {t.resource_type for t in trace.http_transactions}
        assert ResourceType.PLAYER_PAGE in types
        assert ResourceType.MANIFEST in types
        assert ResourceType.VIDEO_SEGMENT in types
        assert ResourceType.BEACON in types

    def test_svc1_fetches_separate_audio(self):
        trace = run_session("svc1")
        types = {t.resource_type for t in trace.http_transactions}
        assert ResourceType.AUDIO_SEGMENT in types

    def test_svc3_muxes_audio(self):
        trace = run_session("svc3")
        types = {t.resource_type for t in trace.http_transactions}
        assert ResourceType.AUDIO_SEGMENT not in types

    def test_svc2_fetches_drm_license(self):
        trace = run_session("svc2")
        types = {t.resource_type for t in trace.http_transactions}
        assert ResourceType.LICENSE in types

    def test_tls_transactions_cover_http(self):
        """Every TLS transaction groups >= 1 HTTP transaction (Fig. 2)."""
        trace = run_session()
        assert 0 < len(trace.tls_transactions) < len(trace.http_transactions)

    def test_tls_transactions_have_service_snis(self):
        trace = run_session("svc1")
        for rec in trace.tls_transactions:
            assert rec.sni in trace.hosts.all_hosts
            assert "svc1" in rec.sni

    def test_low_bandwidth_degrades_svc1_quality(self):
        good = run_session("svc1", bps=20e6, watch=300.0)
        poor = run_session("svc1", bps=0.5e6, watch=300.0)
        def mean_q(tr):
            return np.mean([e.quality for e in tr.play_events])
        assert mean_q(poor) < mean_q(good)

    def test_very_low_bandwidth_stalls_svc2(self):
        trace = run_session("svc2", bps=0.25e6, watch=300.0)
        assert trace.stall_time > 0

    def test_svc1_large_buffer_avoids_stalls_at_moderate_bandwidth(self):
        trace = run_session("svc1", bps=1.0e6, watch=300.0)
        assert trace.stall_time < 0.02 * max(trace.play_time, 1.0)

    def test_short_video_ends_session_early(self):
        profile = get_profile("svc1")
        catalog = profile.make_catalog(seed=1)
        shortest = min(range(len(catalog)), key=lambda i: catalog[i].duration_s)
        video = catalog[shortest]
        trace = PlayerSession(
            profile,
            video,
            Link(trace=flat_trace(20e6)),
            np.random.default_rng(0),
            watch_duration_s=1200.0,
            tcp_params_factory=params_factory,
        ).run()
        assert trace.session_end <= video.duration_s + 30.0
        assert trace.play_time <= video.duration_s + 1e-6

    def test_play_events_ordered_and_qualities_valid(self):
        trace = run_session(watch=200.0)
        n_levels = len(get_profile("svc1").ladder)
        for a, b in zip(trace.play_events, trace.play_events[1:]):
            assert a.end <= b.start + 1e-9
        assert all(0 <= e.quality < n_levels for e in trace.play_events)

    def test_transfers_and_connections_consistent(self):
        trace = run_session()
        conn_ids = {c.connection_id for c in trace.connections}
        assert {t.connection_id for t in trace.transfers} <= conn_ids

    def test_determinism(self):
        t1 = run_session(seed=7)
        t2 = run_session(seed=7)
        assert len(t1.http_transactions) == len(t2.http_transactions)
        assert t1.session_end == t2.session_end
        assert [r.downlink_bytes for r in t1.tls_transactions] == [
            r.downlink_bytes for r in t2.tls_transactions
        ]

    def test_beacons_issued_periodically(self):
        trace = run_session(watch=200.0)
        beacons = [
            t for t in trace.http_transactions
            if t.resource_type is ResourceType.BEACON
        ]
        interval = get_profile("svc1").beacon_interval_s
        assert len(beacons) >= int(200.0 / interval) - 1

    def test_per_second_quality_log_shape(self):
        trace = run_session(watch=100.0)
        log = trace.per_second_quality()
        assert len(log) == int(np.ceil(trace.session_end))
        assert (log >= -2).all()

    def test_buffer_capacity_paces_downloads(self):
        """Downloads must not run arbitrarily ahead of playback."""
        profile = get_profile("svc2")  # 60 s buffer
        trace = run_session("svc2", bps=50e6, watch=400.0, video_idx=1)
        segs = [
            t for t in trace.http_transactions
            if t.resource_type is ResourceType.VIDEO_SEGMENT
        ]
        played = 0.0
        for event in trace.play_events:
            played = max(played, event.end)
        # The last segment download should not complete more than
        # ~capacity ahead of when its content plays.
        last_download = max(s.end for s in segs)
        assert last_download >= played - profile.buffer_capacity_s - 60.0
