"""Tests for repro.has.video."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.has.video import QualityLadder, QualityLevel, Video, VideoCatalog
from repro.workloads import get_profile


def make_ladder():
    return QualityLadder(
        levels=(
            QualityLevel("240p", 240, 3e5),
            QualityLevel("480p", 480, 1e6),
            QualityLevel("720p", 720, 2.5e6),
        )
    )


def make_video(duration=100.0, seg=4.0, complexity=1.0):
    n = int(np.ceil(duration / seg))
    return Video(
        video_id="v",
        duration_s=duration,
        segment_duration_s=seg,
        ladder=make_ladder(),
        complexity=complexity,
        vbr_multipliers=np.ones(n),
    )


class TestQualityLevel:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            QualityLevel("x", 0, 1e6)
        with pytest.raises(ValueError):
            QualityLevel("x", 480, 0.0)


class TestQualityLadder:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QualityLadder(levels=())

    def test_rejects_non_ascending(self):
        with pytest.raises(ValueError):
            QualityLadder(
                levels=(QualityLevel("720p", 720, 2e6), QualityLevel("240p", 240, 3e5))
            )

    def test_len_and_indexing(self):
        ladder = make_ladder()
        assert len(ladder) == 3
        assert ladder[1].name == "480p"

    def test_bitrates_ascending(self):
        assert np.all(np.diff(make_ladder().bitrates) > 0)

    def test_highest_sustainable(self):
        ladder = make_ladder()
        assert ladder.highest_sustainable(1.2e6) == 1
        assert ladder.highest_sustainable(1e5) == 0  # nothing fits -> lowest
        assert ladder.highest_sustainable(1e8) == 2
        assert ladder.highest_sustainable(2e6, safety=0.5) == 1

    def test_highest_sustainable_rejects_bad_safety(self):
        with pytest.raises(ValueError):
            make_ladder().highest_sustainable(1e6, safety=0.0)


class TestVideo:
    def test_n_segments_rounds_up(self):
        assert make_video(duration=10.0, seg=4.0).n_segments == 3

    def test_last_segment_short(self):
        v = make_video(duration=10.0, seg=4.0)
        assert v.segment_play_duration(0) == 4.0
        assert v.segment_play_duration(2) == pytest.approx(2.0)

    def test_segment_bytes_scale_with_bitrate(self):
        v = make_video()
        assert v.segment_bytes(0, 2) > v.segment_bytes(0, 1) > v.segment_bytes(0, 0)

    def test_segment_bytes_match_nominal_bitrate(self):
        v = make_video(seg=4.0)
        expected = 1e6 * 4.0 / 8.0
        assert v.segment_bytes(0, 1) == pytest.approx(expected, rel=1e-6)

    def test_complexity_scales_sizes(self):
        plain = make_video(complexity=1.0)
        complex_ = make_video(complexity=2.0)
        assert complex_.segment_bytes(0, 1) == pytest.approx(
            2 * plain.segment_bytes(0, 1), rel=1e-6
        )

    def test_audio_segment_bytes(self):
        v = make_video(seg=4.0)
        assert v.audio_segment_bytes(0) == pytest.approx(128_000 * 4 / 8, rel=1e-6)

    def test_index_validation(self):
        v = make_video(duration=10.0, seg=4.0)
        with pytest.raises(ValueError):
            v.segment_bytes(3, 0)
        with pytest.raises(ValueError):
            v.segment_bytes(-1, 0)

    def test_rejects_wrong_vbr_length(self):
        with pytest.raises(ValueError):
            Video(
                video_id="v",
                duration_s=10.0,
                segment_duration_s=4.0,
                ladder=make_ladder(),
                complexity=1.0,
                vbr_multipliers=np.ones(5),
            )

    @given(q=st.integers(0, 2), seg=st.integers(0, 24))
    @settings(max_examples=40, deadline=None)
    def test_segment_bytes_positive(self, q, seg):
        v = make_video(duration=100.0, seg=4.0)
        assert v.segment_bytes(seg, q) > 0


class TestVideoCatalog:
    def test_catalog_size(self):
        catalog = VideoCatalog(make_ladder(), 4.0, n_videos=10, seed=0)
        assert len(catalog) == 10

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            VideoCatalog(make_ladder(), 4.0, n_videos=0)
        with pytest.raises(ValueError):
            VideoCatalog(make_ladder(), 4.0, min_duration_s=100.0, max_duration_s=50.0)

    def test_deterministic_across_instances(self):
        c1 = VideoCatalog(make_ladder(), 4.0, n_videos=5, seed=3)
        c2 = VideoCatalog(make_ladder(), 4.0, n_videos=5, seed=3)
        assert c1[2].duration_s == c2[2].duration_s
        assert c1[2].complexity == c2[2].complexity

    def test_titles_vary_in_complexity(self):
        catalog = VideoCatalog(make_ladder(), 4.0, n_videos=30, seed=0)
        complexities = {round(catalog[i].complexity, 6) for i in range(30)}
        assert len(complexities) > 20

    def test_sample_draws_from_catalog(self):
        catalog = VideoCatalog(make_ladder(), 4.0, n_videos=5, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            video = catalog.sample(rng)
            assert video.video_id.startswith("video-")

    def test_service_catalog_sizes_match_paper(self):
        """The paper curates 50-75 titles per service."""
        for name in ("svc1", "svc2", "svc3"):
            profile = get_profile(name)
            assert 50 <= len(profile.make_catalog()) <= 75
