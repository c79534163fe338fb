"""Coverage for corners not exercised elsewhere."""

import numpy as np
import pytest

from repro.collection.harness import collect_corpus
from repro.ml.metrics import EvalReport


class TestEvalReport:
    def test_row_percent_handles_empty_rows(self):
        report = EvalReport(
            accuracy=1.0,
            recall=float("nan"),
            precision=float("nan"),
            confusion=np.array([[0, 0], [0, 5]]),
        )
        rows = report.confusion_row_percent()
        np.testing.assert_allclose(rows[0], [0.0, 0.0])
        np.testing.assert_allclose(rows[1], [0.0, 100.0])


class TestVideoLevelJitter:
    def test_level_multipliers_change_sizes(self):
        from repro.has.video import QualityLadder, QualityLevel, Video

        ladder = QualityLadder(
            levels=(QualityLevel("a", 240, 1e6), QualityLevel("b", 480, 2e6))
        )
        base = Video(
            video_id="v",
            duration_s=10.0,
            segment_duration_s=5.0,
            ladder=ladder,
            complexity=1.0,
            vbr_multipliers=np.ones(2),
        )
        jittered = Video(
            video_id="v",
            duration_s=10.0,
            segment_duration_s=5.0,
            ladder=ladder,
            complexity=1.0,
            vbr_multipliers=np.ones(2),
            level_multipliers=np.array([2.0, 0.5]),
        )
        assert jittered.segment_bytes(0, 0) == 2 * base.segment_bytes(0, 0)
        assert jittered.segment_bytes(0, 1) == pytest.approx(
            0.5 * base.segment_bytes(0, 1), abs=1
        )

    def test_level_multiplier_validation(self):
        from repro.has.video import QualityLadder, QualityLevel, Video

        ladder = QualityLadder(levels=(QualityLevel("a", 240, 1e6),))
        with pytest.raises(ValueError):
            Video(
                video_id="v",
                duration_s=10.0,
                segment_duration_s=5.0,
                ladder=ladder,
                complexity=1.0,
                vbr_multipliers=np.ones(2),
                level_multipliers=np.array([1.0, 1.0]),  # wrong length
            )

    def test_catalog_titles_differ_per_level(self):
        from repro.workloads import get_profile

        catalog = get_profile("svc1").make_catalog(seed=2)
        sizes = {
            round(catalog[i].segment_bytes(0, 3) / catalog[i].segment_play_duration(0))
            for i in range(20)
        }
        # Complexity + level jitter: 20 titles give ~20 distinct
        # bytes-per-second at the same rung.
        assert len(sizes) > 15


class TestRunAllStructure:
    def test_every_registered_experiment_has_entry_point(self):
        from repro.experiments import registry

        for spec in registry.all_experiments():
            assert callable(spec.run), spec.name

    def test_experiment_titles_unique(self):
        from repro.experiments import registry

        titles = [spec.title for spec in registry.all_experiments()]
        assert len(titles) == len(set(titles))


class TestDatasetLabelsApi:
    def test_unknown_target_rejected(self):
        ds = collect_corpus("svc3", 3, seed=0)
        with pytest.raises(ValueError):
            ds.labels("startup")

    def test_all_targets_available(self):
        ds = collect_corpus("svc3", 3, seed=0)
        for target in ("rebuffering", "quality", "combined"):
            assert ds.labels(target).shape == (3,)
