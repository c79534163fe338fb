"""Tests for repro.ml.model_selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parallel
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.model_selection import (
    StratifiedKFold,
    clone,
    cross_val_predict,
    cross_validate,
)
from repro.ml.tree import DecisionTreeClassifier
from tests.test_ml_golden import PAPER_FOREST


class TestStratifiedKFold:
    def test_rejects_bad_splits(self):
        with pytest.raises(ValueError):
            StratifiedKFold(n_splits=1)

    def test_every_sample_tested_exactly_once(self):
        y = np.repeat([0, 1, 2], 20)
        seen = np.zeros(60, dtype=int)
        for train, test in StratifiedKFold(n_splits=5).split(y):
            seen[test] += 1
            assert np.intersect1d(train, test).size == 0
        np.testing.assert_array_equal(seen, 1)

    def test_stratification_preserved(self):
        y = np.array([0] * 50 + [1] * 25 + [2] * 25)
        for train, test in StratifiedKFold(n_splits=5).split(y):
            frac0 = (y[test] == 0).mean()
            assert frac0 == pytest.approx(0.5, abs=0.05)

    def test_tiny_classes_spread_round_robin(self):
        y = np.array([0] * 20 + [1])
        folds_with_one = sum(
            1 for _, test in StratifiedKFold(n_splits=5).split(y) if (y[test] == 1).any()
        )
        assert folds_with_one == 1

    def test_rejects_fewer_samples_than_splits(self):
        with pytest.raises(ValueError):
            list(StratifiedKFold(n_splits=5).split(np.array([0, 1, 0])))

    def test_deterministic_given_seed(self):
        y = np.repeat([0, 1], 20)
        a = [t.tolist() for _, t in StratifiedKFold(random_state=3).split(y)]
        b = [t.tolist() for _, t in StratifiedKFold(random_state=3).split(y)]
        assert a == b

    @given(seed=st.integers(0, 100), n_splits=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, seed, n_splits):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, 90)
        if np.bincount(y, minlength=3).min() < n_splits:
            return
        splitter = StratifiedKFold(n_splits=n_splits, random_state=seed)
        all_test = np.concatenate([test for _, test in splitter.split(y)])
        assert sorted(all_test.tolist()) == list(range(90))


class TestClone:
    def test_clone_is_independent(self):
        knn = KNeighborsClassifier(n_neighbors=3)
        knn.fit(np.arange(12, dtype=float).reshape(-1, 2), np.array([0, 0, 0, 1, 1, 1]))
        copy = clone(knn)
        copy.fit(np.ones((6, 2)), np.array([1, 1, 1, 0, 0, 0]))
        # Original's training data is untouched.
        assert knn._X is not copy._X


class TestCrossValidation:
    def make_data(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, n)
        X = np.column_stack([y + rng.normal(0, 0.3, n), rng.normal(size=n)])
        return X, y

    def test_cross_val_predict_covers_all(self):
        X, y = self.make_data()
        pred = cross_val_predict(DecisionTreeClassifier(max_depth=4), X, y)
        assert pred.shape == y.shape
        assert set(np.unique(pred)) <= {0, 1, 2}

    def test_cross_validate_report(self):
        X, y = self.make_data()
        report = cross_validate(DecisionTreeClassifier(max_depth=4), X, y)
        assert report.accuracy > 0.8
        assert 0 <= report.recall <= 1
        assert report.confusion.sum() == y.shape[0]

    def test_no_leakage_on_pure_noise(self):
        """CV accuracy on pure noise must hover near chance."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 5))
        y = rng.integers(0, 3, 300)
        report = cross_validate(DecisionTreeClassifier(max_depth=8), X, y)
        assert report.accuracy < 0.5

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            cross_val_predict(
                DecisionTreeClassifier(), np.ones((5, 2)), np.zeros(4, dtype=int)
            )


CV_MODELS = {
    "forest": lambda: RandomForestClassifier(**PAPER_FOREST),
    "boosting": lambda: GradientBoostingClassifier(
        n_estimators=8, max_depth=3, random_state=0
    ),
    "knn": lambda: KNeighborsClassifier(n_neighbors=5),
}


def _cv_data(n=150, seed=3):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    X = np.column_stack([y + rng.normal(0, 0.8, n), rng.normal(size=(n, 5))])
    return X, y


class TestWorkerCounts:
    """The pool's worker count changes no prediction, whatever the
    number of folds and however many are left for a last round."""

    @pytest.mark.parametrize("model", sorted(CV_MODELS))
    def test_predictions_identical_at_every_worker_count(self, model):
        X, y = _cv_data()
        try:
            for n_splits in (2, 3, 5, 7):
                ref = cross_val_predict(
                    CV_MODELS[model](), X, y, n_splits=n_splits, n_jobs=1
                )
                for jobs in (2, 3, 4):
                    got = cross_val_predict(
                        CV_MODELS[model](), X, y, n_splits=n_splits, n_jobs=jobs
                    )
                    assert got.dtype == ref.dtype
                    assert got.tobytes() == ref.tobytes(), (model, n_splits, jobs)
        finally:
            parallel.shutdown()
