"""Property-based tests for the ML stack's core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from tests.scoring_oracle import per_tree_proba


@st.composite
def classification_data(draw):
    n = draw(st.integers(12, 80))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    return X, y


class TestTreeProperties:
    @given(data=classification_data())
    @settings(max_examples=40, deadline=None)
    def test_probabilities_valid(self, data):
        X, y = data
        tree = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y)
        proba = tree.predict_proba(X)
        assert (proba >= 0).all() and (proba <= 1).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    @given(data=classification_data())
    @settings(max_examples=40, deadline=None)
    def test_predictions_are_known_classes(self, data):
        X, y = data
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        assert set(np.unique(tree.predict(X))) <= set(np.unique(y))

    @given(data=classification_data())
    @settings(max_examples=30, deadline=None)
    def test_deeper_trees_fit_no_worse(self, data):
        X, y = data
        shallow = DecisionTreeClassifier(max_depth=1, random_state=0).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=8, random_state=0).fit(X, y)
        def acc(t):
            return (t.predict(X) == y).mean()
        assert acc(deep) >= acc(shallow) - 1e-9

    @given(data=classification_data())
    @settings(max_examples=30, deadline=None)
    def test_importances_normalized(self, data):
        X, y = data
        tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
        imp = tree.feature_importances_
        assert (imp >= 0).all()
        total = imp.sum()
        assert total == 0 or abs(total - 1.0) < 1e-9

    @given(
        data=classification_data(),
        shift=st.floats(min_value=-100, max_value=100),
        scale=st.floats(min_value=0.01, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_invariant_to_monotone_feature_transforms(self, data, shift, scale):
        """CART splits depend only on feature order, so affine
        transforms with positive scale leave predictions unchanged."""
        X, y = data
        t1 = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
        t2 = DecisionTreeClassifier(max_depth=5, random_state=0).fit(
            X * scale + shift, y
        )
        np.testing.assert_array_equal(
            t1.predict(X), t2.predict(X * scale + shift)
        )


class TestRegressorProperties:
    @given(data=classification_data())
    @settings(max_examples=30, deadline=None)
    def test_predictions_within_target_range(self, data):
        X, y = data
        y = y.astype(float)
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        pred = tree.predict(X)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9


class _PresetLeaves:
    """Stands in for a forest's stacked trees: every traversal returns
    the same ``(n_trees, n_rows, n_classes)`` leaf values."""

    def __init__(self, leaf):
        self.leaf = leaf

    def leaf_values(self, X):
        return self.leaf


class TestEnsembleProperties:
    @given(data=classification_data())
    @settings(max_examples=15, deadline=None)
    def test_forest_probabilities_valid(self, data):
        X, y = data
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        proba = forest.predict_proba(X)
        assert (proba >= 0).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    @given(
        seed=st.integers(0, 10_000),
        n_classes=st.sampled_from((1, 2)),
        n_rows=st.sampled_from((1, 64)),
    )
    @settings(max_examples=20, deadline=None)
    def test_forest_proba_sums_trees_in_tree_order(self, seed, n_classes, n_rows):
        """Equal to adding the trees one at a time from zeros, byte for
        byte, at one row and one class too, where a reduction over the
        tree axis sums pairwise.  A one-class forest's leaves all read
        1.0, so preset leaf values stand in for the traversal's as well."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 3))
        y = np.arange(30) % n_classes
        forest = RandomForestClassifier(
            n_estimators=60, random_state=seed, n_jobs=1
        ).fit(X, y)
        rows = rng.normal(size=(n_rows, 3))
        assert forest.predict_proba(rows).tobytes() == per_tree_proba(forest, rows).tobytes()
        forest._flat = _PresetLeaves(rng.random((60, n_rows, n_classes)))
        assert forest.predict_proba(rows).tobytes() == per_tree_proba(forest, rows).tobytes()

    @given(data=classification_data())
    @settings(max_examples=10, deadline=None)
    def test_boosting_training_accuracy_improves_with_rounds(self, data):
        X, y = data
        few = GradientBoostingClassifier(n_estimators=1, random_state=0).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=15, random_state=0).fit(X, y)
        def acc(m):
            return (m.predict(X) == y).mean()
        assert acc(many) >= acc(few) - 0.05
