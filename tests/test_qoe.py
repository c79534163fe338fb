"""Tests for repro.qoe.metrics and repro.qoe.labels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.has.buffer import PlayEvent
from repro.has.player import PlayerSession
from repro.net.bandwidth import BandwidthTrace, TraceFamily
from repro.net.link import Link
from repro.net.tcp import TcpParams
from repro.qoe.labels import SessionLabels, compute_labels
from repro.qoe.metrics import (
    combined_qoe,
    quality_category_counts,
    rebuffering_category,
    rebuffering_ratio,
    video_quality_category,
)
from repro.workloads import get_profile


class TestRebufferingRatio:
    def test_basic(self):
        assert rebuffering_ratio(2.0, 100.0) == pytest.approx(0.02)

    def test_zero_stall(self):
        assert rebuffering_ratio(0.0, 50.0) == 0.0

    def test_no_playback(self):
        assert rebuffering_ratio(0.0, 0.0) == 0.0
        assert rebuffering_ratio(5.0, 0.0) == float("inf")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rebuffering_ratio(-1.0, 10.0)

    def test_categories_match_paper_thresholds(self):
        assert rebuffering_category(0.0) == 2  # zero
        assert rebuffering_category(0.01) == 1  # mild: 0 < rr <= 2%
        assert rebuffering_category(0.02) == 1  # boundary inclusive
        assert rebuffering_category(0.021) == 0  # high
        assert rebuffering_category(1.5) == 0

    def test_category_rejects_negative(self):
        with pytest.raises(ValueError):
            rebuffering_category(-0.1)


class TestVideoQualityCategory:
    CATS = [0, 0, 1, 1, 2]  # ladder index -> category

    def ev(self, dur, q):
        return PlayEvent(start=0.0, end=dur, quality=q)

    def test_majority_wins(self):
        events = [self.ev(10, 0), self.ev(30, 2), self.ev(5, 4)]
        # low 10s, med 30s, high 5s
        assert video_quality_category(events, self.CATS) == 1

    def test_tie_goes_to_lower_category(self):
        events = [self.ev(10, 0), self.ev(10, 4)]
        assert video_quality_category(events, self.CATS) == 0

    def test_empty_session_is_low(self):
        assert video_quality_category([], self.CATS) == 0

    def test_counts(self):
        events = [self.ev(10, 0), self.ev(20, 3), self.ev(30, 4)]
        counts = quality_category_counts(events, self.CATS)
        np.testing.assert_allclose(counts, [10.0, 20.0, 30.0])

    def test_rejects_invalid_category_mapping(self):
        with pytest.raises(ValueError):
            video_quality_category([self.ev(5, 0)], [7])


class TestCombinedQoe:
    def test_minimum_rule(self):
        assert combined_qoe(2, 2) == 2
        assert combined_qoe(0, 2) == 0  # low quality, zero rebuffering -> low
        assert combined_qoe(2, 0) == 0
        assert combined_qoe(1, 2) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            combined_qoe(3, 0)
        with pytest.raises(ValueError):
            combined_qoe(0, -1)

    @given(q=st.integers(0, 2), r=st.integers(0, 2))
    def test_commutative_and_bounded(self, q, r):
        value = combined_qoe(q, r)
        assert value == combined_qoe(r, q)
        assert value <= min(q, r) + 0  # exactly min
        assert 0 <= value <= 2


class TestSessionLabels:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionLabels(rebuffering_ratio=0.0, rebuffering=3, quality=0, combined=0)

    def test_get(self):
        labels = SessionLabels(
            rebuffering_ratio=0.01, rebuffering=1, quality=2, combined=1
        )
        assert labels.get("rebuffering") == 1
        assert labels.get("quality") == 2
        assert labels.get("combined") == 1
        with pytest.raises(ValueError):
            labels.get("startup")


class TestComputeLabels:
    def run(self, service="svc1", bps=6e6, watch=150.0):
        profile = get_profile(service)
        trace = BandwidthTrace(
            times=np.array([0.0]),
            bandwidth_bps=np.array([bps]),
            duration=1400.0,
            family=TraceFamily.FCC,
        )
        session = PlayerSession(
            profile,
            profile.make_catalog(seed=1)[0],
            Link(trace=trace),
            np.random.default_rng(3),
            watch_duration_s=watch,
            tcp_params_factory=lambda rng: TcpParams(rtt_s=0.04, loss_rate=0.001),
        ).run()
        return session, profile

    def test_labels_consistent_with_trace(self):
        session, profile = self.run()
        labels = compute_labels(session, profile)
        rr = session.stall_time / session.play_time
        assert labels.rebuffering_ratio == pytest.approx(rr)
        assert labels.combined == min(labels.quality, labels.rebuffering)

    def test_good_network_high_combined(self):
        session, profile = self.run(bps=40e6, watch=600.0)
        labels = compute_labels(session, profile)
        assert labels.combined == 2

    def test_bad_network_low_combined(self):
        session, profile = self.run(bps=0.3e6, watch=300.0)
        labels = compute_labels(session, profile)
        assert labels.combined == 0

    def test_profile_mismatch_rejected(self):
        session, _ = self.run("svc1")
        with pytest.raises(ValueError):
            compute_labels(session, get_profile("svc2"))
