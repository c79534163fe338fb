"""Tests for user-interaction support (pause/seek)."""

import numpy as np
import pytest

from repro.has.buffer import PlaybackSchedule, PlayEvent
from repro.has.player import PlayerSession, UserBehavior
from repro.net.bandwidth import BandwidthTrace, TraceFamily
from repro.net.link import Link
from repro.net.tcp import TcpParams
from repro.workloads import get_profile


class TestUserBehaviorValidation:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            UserBehavior(pauses_per_minute=-1.0)
        with pytest.raises(ValueError):
            UserBehavior(seeks_per_minute=-0.1)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            UserBehavior(pause_duration_s=(10.0, 5.0))
        with pytest.raises(ValueError):
            UserBehavior(seek_segments=(0, 5))


class TestSchedulePause:
    def make_playing_schedule(self):
        s = PlaybackSchedule(startup_buffer_s=4.0)
        s.segment_arrived(1.0, 4.0, 0)  # plays 1-5
        s.segment_arrived(2.0, 4.0, 1)  # plays 5-9
        return s

    def test_pause_shifts_future_playback(self):
        s = self.make_playing_schedule()
        s.pause(at=5.0, duration=10.0)
        assert s.events[1].start == pytest.approx(15.0)
        assert s.events[1].end == pytest.approx(19.0)
        assert s.buffer_level(5.0) == pytest.approx(14.0)

    def test_pause_splits_straddling_event(self):
        s = self.make_playing_schedule()
        s.pause(at=3.0, duration=10.0)
        # First event split at t=3.
        assert s.events[0] == PlayEvent(1.0, 3.0, 0)
        assert s.events[1] == PlayEvent(13.0, 15.0, 0)
        # Play time is conserved.
        assert s.play_time == pytest.approx(8.0)

    def test_pause_before_start_is_noop(self):
        s = PlaybackSchedule(startup_buffer_s=100.0)
        s.segment_arrived(1.0, 4.0, 0)
        s.pause(at=2.0, duration=5.0)
        assert not s.started

    def test_zero_pause_is_noop(self):
        s = self.make_playing_schedule()
        before = list(s.events)
        s.pause(at=3.0, duration=0.0)
        assert s.events == before

    def test_negative_pause_rejected(self):
        s = self.make_playing_schedule()
        with pytest.raises(ValueError):
            s.pause(at=3.0, duration=-1.0)


class TestScheduleSeek:
    def test_seek_flush_drops_future_content(self):
        s = PlaybackSchedule(startup_buffer_s=4.0)
        s.segment_arrived(1.0, 4.0, 0)
        s.segment_arrived(2.0, 4.0, 1)
        s.seek_flush(at=4.0)
        assert s.buffer_level(4.0) == 0.0
        assert s.play_time == pytest.approx(3.0)

    def test_arrival_after_seek_plays_immediately(self):
        s = PlaybackSchedule(startup_buffer_s=4.0)
        s.segment_arrived(1.0, 4.0, 0)
        s.seek_flush(at=2.0)
        s.segment_arrived(6.0, 4.0, 2)
        # Gap 2-6 counts as a (seek re-buffering) stall.
        assert s.stalls and s.stalls[-1].duration == pytest.approx(4.0)
        assert s.events[-1].start == pytest.approx(6.0)

    def test_seek_before_start_clears_pending(self):
        s = PlaybackSchedule(startup_buffer_s=100.0)
        s.segment_arrived(1.0, 4.0, 0)
        s.seek_flush(at=2.0)
        assert s.buffer_level(2.0) == 0.0


class TestInteractivePlayer:
    def run_session(self, behavior, seed=0, watch=600.0):
        profile = get_profile("svc1")
        catalog = profile.make_catalog(seed=1)
        longest = max(range(len(catalog)), key=lambda i: catalog[i].duration_s)
        trace = BandwidthTrace(
            times=np.array([0.0]),
            bandwidth_bps=np.array([8e6]),
            duration=1400.0,
            family=TraceFamily.FCC,
        )
        return PlayerSession(
            profile,
            catalog[longest],
            Link(trace=trace),
            np.random.default_rng(seed),
            watch,
            lambda rng: TcpParams(rtt_s=0.04, loss_rate=0.001),
            behavior=behavior,
        ).run()

    def test_no_behavior_means_no_interactions(self):
        session = self.run_session(behavior=None)
        assert session.n_pauses == 0
        assert session.n_seeks == 0

    def test_pause_heavy_behavior_pauses(self):
        session = self.run_session(
            UserBehavior(pauses_per_minute=3.0, pause_duration_s=(5.0, 10.0))
        )
        assert session.n_pauses > 0
        # Paused wall-clock time means less content played per second.
        assert session.play_time < session.session_end

    def test_seek_heavy_behavior_seeks(self):
        session = self.run_session(
            UserBehavior(seeks_per_minute=2.0, seek_segments=(3, 6))
        )
        assert session.n_seeks > 0

    def test_events_remain_ordered_under_interactions(self):
        session = self.run_session(
            UserBehavior(
                pauses_per_minute=1.5,
                pause_duration_s=(3.0, 20.0),
                seeks_per_minute=1.0,
            ),
            seed=5,
        )
        for a, b in zip(session.play_events, session.play_events[1:]):
            assert a.end <= b.start + 1e-9
        assert session.play_time >= 0
        assert session.stall_time >= 0
