"""Cross-module integration tests.

These check conservation laws and consistency properties that only
hold if the whole pipeline — player, TCP, TLS pool, proxy, dataset,
features — agrees end to end.
"""

import numpy as np
import pytest

from repro.collection.harness import collect_corpus, collect_session
from repro.features.tls_features import extract_tls_features
from repro.net.bandwidth import BandwidthTrace, TraceFamily
from repro.tlsproxy.proxy import HANDSHAKE_DOWN_BYTES, HANDSHAKE_UP_BYTES, RECORD_OVERHEAD
from repro.workloads import get_profile


@pytest.fixture(scope="module")
def sessions():
    profile = get_profile("svc1")
    catalog = profile.make_catalog(seed=0)
    rng = np.random.default_rng(33)
    return [
        collect_session(profile, catalog.sample(rng), rng) for _ in range(6)
    ], profile


class TestByteConservation:
    def test_tls_bytes_cover_http_payload(self, sessions):
        """Proxy-reported bytes = application payload + TLS overhead."""
        traces, _ = sessions
        for trace in traces:
            payload_down = sum(t.response_bytes for t in trace.http_transactions)
            payload_up = sum(t.request_bytes for t in trace.http_transactions)
            proxy_down = sum(t.downlink_bytes for t in trace.tls_transactions)
            proxy_up = sum(t.uplink_bytes for t in trace.tls_transactions)
            n_conns = len(trace.connections)
            expected_down = (
                payload_down * RECORD_OVERHEAD + n_conns * HANDSHAKE_DOWN_BYTES
            )
            expected_up = payload_up * RECORD_OVERHEAD + n_conns * HANDSHAKE_UP_BYTES
            assert proxy_down == pytest.approx(expected_down, rel=0.01)
            assert proxy_up == pytest.approx(expected_up, rel=0.01)

    def test_transfer_bytes_match_http(self, sessions):
        traces, _ = sessions
        for trace in traces:
            assert sum(t.response_bytes for t in trace.transfers) == sum(
                t.response_bytes for t in trace.http_transactions
            )

    def test_packet_payload_covers_transfers(self, sessions):
        """The synthesized packet trace carries every transferred byte."""
        from repro.collection.dataset import SessionRecord

        traces, profile = sessions
        record = SessionRecord.from_trace(traces[0], profile)
        pkt = record.packet_trace()
        wire_down = pkt.bytes_down()
        payload_down = record.transfers[:, 5].sum()
        assert wire_down >= payload_down  # headers only add


class TestTimelineConsistency:
    def test_play_events_within_session(self, sessions):
        traces, _ = sessions
        for trace in traces:
            for event in trace.play_events:
                assert 0 <= event.start <= trace.session_end + 1e-6
                assert event.end <= trace.session_end + 1e-6

    def test_tls_transactions_start_within_session(self, sessions):
        """Transactions open during the session; only closes linger."""
        traces, _ = sessions
        for trace in traces:
            for txn in trace.tls_transactions:
                assert txn.start <= trace.session_end + 1e-6

    def test_lingering_closes_extend_past_session_end(self, sessions):
        traces, profile = sessions
        for trace in traces:
            last_close = max(t.end for t in trace.tls_transactions)
            assert last_close >= trace.session_end

    def test_play_plus_stall_bounded_by_wallclock(self, sessions):
        traces, _ = sessions
        for trace in traces:
            assert trace.play_time + trace.stall_time <= trace.session_end + 1e-6


class TestFeatureLabelAlignment:
    def test_ses_dur_tracks_transaction_span(self, sessions):
        traces, _ = sessions
        from repro.features.tls_features import TLS_FEATURE_NAMES

        idx = TLS_FEATURE_NAMES.index("SES_DUR")
        for trace in traces:
            vector = extract_tls_features(trace.tls_transactions)
            span = max(t.end for t in trace.tls_transactions) - min(
                t.start for t in trace.tls_transactions
            )
            assert vector[idx] == pytest.approx(span)

    def test_corpus_pipeline_shapes_agree(self):
        from repro.features.packet_features import extract_ml16_matrix
        from repro.features.tls_features import extract_tls_matrix
        from repro.netflow.features import extract_flow_matrix

        ds = collect_corpus("svc3", 8, seed=9)
        X_tls, _ = extract_tls_matrix(ds)
        X_pkt, _ = extract_ml16_matrix(ds)
        X_flow, _ = extract_flow_matrix(ds)
        assert X_tls.shape[0] == X_pkt.shape[0] == X_flow.shape[0] == 8
        assert np.isfinite(X_tls).all()
        assert np.isfinite(X_pkt).all()
        assert np.isfinite(X_flow).all()


class TestExtremes:
    def test_very_short_watch(self):
        profile = get_profile("svc2")
        catalog = profile.make_catalog(seed=0)
        rng = np.random.default_rng(1)
        trace = collect_session(
            profile, catalog.sample(rng), rng, watch_duration_s=10.0
        )
        assert trace.session_end <= 10.0 + 1e-9
        assert trace.tls_transactions
        vector = extract_tls_features(trace.tls_transactions)
        assert np.isfinite(vector).all()

    def test_starved_network_session_still_collects(self):
        profile = get_profile("svc3")
        catalog = profile.make_catalog(seed=0)
        rng = np.random.default_rng(2)
        slow = BandwidthTrace(
            times=np.array([0.0]),
            bandwidth_bps=np.array([64_000.0]),
            duration=1400.0,
            family=TraceFamily.HSDPA_3G,
        )
        trace = collect_session(
            profile, catalog.sample(rng), rng, trace=slow, watch_duration_s=120.0
        )
        # At 64 kbps the page barely downloads; the session must still
        # terminate cleanly and produce records.
        assert trace.session_end <= 120.0 + 1e-9
        assert trace.tls_transactions

    def test_blazing_network_full_quality(self):
        profile = get_profile("svc2")
        catalog = profile.make_catalog(seed=0)
        rng = np.random.default_rng(3)
        fast = BandwidthTrace(
            times=np.array([0.0]),
            bandwidth_bps=np.array([500e6]),
            duration=1400.0,
            family=TraceFamily.FCC,
        )
        trace = collect_session(
            profile, catalog.sample(rng), rng, trace=fast, watch_duration_s=300.0
        )
        assert trace.stall_time == 0.0
        top = len(profile.ladder) - 1
        qualities = [e.quality for e in trace.play_events]
        # ABR jitter aside, the top rung dominates.
        assert np.mean([q >= top - 1 for q in qualities]) > 0.8
