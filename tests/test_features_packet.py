"""Tests for repro.features.segments and repro.features.packet_features."""

import numpy as np
import pytest

from repro.collection.harness import collect_corpus
from repro.features.packet_features import (
    ML16_FEATURE_NAMES,
    extract_ml16_features,
    extract_ml16_matrix,
)
from repro.net.bandwidth import BandwidthTrace, TraceFamily
from repro.net.link import Link
from repro.net.packets import synthesize_packet_trace
from repro.net.tcp import TcpConnection, TcpParams
from repro.tlsproxy.records import ResourceType
from tests.packet_oracle import reconstruct_segments


@pytest.fixture(scope="module")
def corpus():
    return collect_corpus("svc1", 10, seed=4)


def make_connection(loss=0.0, seed=0):
    trace = BandwidthTrace(
        times=np.array([0.0]),
        bandwidth_bps=np.array([20e6]),
        duration=3600.0,
        family=TraceFamily.FCC,
    )
    return TcpConnection(
        Link(trace=trace),
        TcpParams(rtt_s=0.05, loss_rate=loss),
        0.0,
        np.random.default_rng(seed),
    )


class TestReconstructSegments:
    def test_recovers_segment_count_and_sizes(self):
        conn = make_connection()
        sizes = [400_000, 600_000, 800_000]
        t = 0.0
        transfers = []
        for size in sizes:
            tr = conn.request(t, 500, size)
            transfers.append(tr)
            t = tr.end + 2.0
        trace = synthesize_packet_trace(transfers)
        segments = reconstruct_segments(trace)
        assert segments.n_segments == 3
        # Wire sizes include headers, so recovered >= payload.
        for recovered, expected in zip(np.sort(segments.sizes_bytes), sorted(sizes)):
            assert recovered == pytest.approx(expected, rel=0.1)

    def test_small_responses_filtered(self):
        conn = make_connection()
        transfers = [conn.request(0.0, 500, 3_000)]
        trace = synthesize_packet_trace(transfers)
        assert reconstruct_segments(trace).n_segments == 0

    def test_empty_trace(self):
        trace = synthesize_packet_trace([])
        segments = reconstruct_segments(trace)
        assert segments.n_segments == 0
        assert segments.inter_arrivals().size == 0

    def test_throughputs_positive(self):
        conn = make_connection()
        tr = conn.request(0.0, 500, 500_000)
        segments = reconstruct_segments(synthesize_packet_trace([tr]))
        assert (segments.throughputs() > 0).all()

    def test_recovered_count_tracks_real_segments(self, corpus):
        """On a full session, recovered segments ≈ media transactions."""
        record = corpus[0]
        segments = reconstruct_segments(record.packet_trace())
        media = (
            record.resource_mask(ResourceType.VIDEO_SEGMENT)
            | record.resource_mask(ResourceType.AUDIO_SEGMENT)
        )
        big = record.http["response_bytes"][media] >= 20_000
        n_media = int(big.sum())
        assert segments.n_segments == pytest.approx(n_media, rel=0.35, abs=8)


class TestMl16Features:
    def test_schema_length(self):
        assert len(ML16_FEATURE_NAMES) == 24

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            extract_ml16_features(synthesize_packet_trace([]))

    def test_features_finite_on_real_sessions(self, corpus):
        for record in corpus:
            vector = extract_ml16_features(record.packet_trace())
            assert vector.shape == (len(ML16_FEATURE_NAMES),)
            assert np.isfinite(vector).all()

    def test_retransmission_features_respond_to_loss(self):
        lossless = make_connection(loss=0.0, seed=1)
        lossy = make_connection(loss=0.04, seed=1)
        f0 = extract_ml16_features(
            synthesize_packet_trace([lossless.request(0.0, 500, 3_000_000)])
        )
        f1 = extract_ml16_features(
            synthesize_packet_trace([lossy.request(0.0, 500, 3_000_000)])
        )
        names = list(ML16_FEATURE_NAMES)
        assert f1[names.index("RETX_COUNT")] > f0[names.index("RETX_COUNT")]
        assert f1[names.index("RETX_RATE")] > f0[names.index("RETX_RATE")]

    def test_rtt_estimate_close_to_truth(self):
        conn = make_connection()
        tr = conn.request(0.0, 500, 100_000)
        trace = synthesize_packet_trace(
            [tr], [(conn.connection_id, conn.opened_at, conn.params.rtt_s)]
        )
        vector = extract_ml16_features(trace)
        rtt = vector[list(ML16_FEATURE_NAMES).index("RTT_MED")]
        assert rtt == pytest.approx(conn.params.rtt_s, rel=0.5)

    def test_matrix_shape(self, corpus):
        X, names = extract_ml16_matrix(corpus)
        assert X.shape == (len(corpus), len(ML16_FEATURE_NAMES))
        assert np.isfinite(X).all()
