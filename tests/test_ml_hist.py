"""Hist-vs-exact-oracle golden-equivalence suite.

The contract (DESIGN.md §5h): on *pre-binned* data — every column has
few enough distinct values that :class:`~repro.ml.binning.Binner` is
lossless — histogram split finding (the library's only grower) scores
exactly the same candidate boundaries as the exact oracle splitter
(``tests/tree_oracle.py``), with the same float expressions, so the two
must agree **bitwise**: identical node tables for classifier trees,
identical predictions/importances for forests, boosting, and
regressors.  On continuous data they may differ (hist quantizes to ≤256
bins); there the contract is a bounded accuracy delta on the paper's
fig5/table3 corpus, plus bit-identity of hist results across worker
counts and row permutations.
"""

import numpy as np
import pytest

from perfbench.workloads import STREAM_MODEL
from repro.collection.harness import collect_corpus
from repro.experiments.common import build_model, features_for
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import cross_val_predict
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from tests.tree_oracle import (
    ExactDecisionTreeClassifier,
    ExactDecisionTreeRegressor,
    exact_growth,
    growth,
    leaf_values_reference,
)


def binned_data(seed=0, n=600, n_features=6, n_values=12, k=3):
    """Data where every column has ``n_values`` distinct values, so
    binning is lossless and hist/the exact oracle see identical
    candidate splits."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_values, size=(n, n_features)).astype(np.float64)
    X *= rng.gamma(2.0, size=n_features)  # distinct per-column scales
    y = (X[:, 0] + X[:, 1] > np.median(X[:, 0] + X[:, 1])).astype(int)
    y += (X[:, 2] > np.median(X[:, 2])).astype(int) * (k > 2)
    noisy = rng.random(n) < 0.1
    y[noisy] = rng.integers(0, k, size=int(noisy.sum()))
    return X, y


def assert_same_tree(a, b):
    assert np.array_equal(a.feature_, b.feature_)
    assert np.array_equal(a.threshold_, b.threshold_)
    assert np.array_equal(a.left_, b.left_)
    assert np.array_equal(a.right_, b.right_)
    assert np.array_equal(a.value_, b.value_)
    assert np.array_equal(a.feature_importances_, b.feature_importances_)


class TestPreBinnedIdentity:
    @pytest.mark.parametrize("max_features", [None, "sqrt", 3])
    def test_classifier_tree_identical_node_table(self, max_features):
        X, y = binned_data(seed=1)
        kw = dict(max_features=max_features, random_state=7)
        exact = ExactDecisionTreeClassifier(**kw).fit(X, y)
        hist = DecisionTreeClassifier(**kw).fit(X, y)
        assert_same_tree(exact, hist)

    @pytest.mark.parametrize("max_depth", [4, None])
    def test_regressor_identical_predictions(self, max_depth):
        X, _ = binned_data(seed=2)
        rng = np.random.default_rng(3)
        t = rng.integers(0, 9, size=X.shape[0]).astype(np.float64)
        exact = ExactDecisionTreeRegressor(max_depth=max_depth, random_state=0).fit(X, t)
        hist = DecisionTreeRegressor(max_depth=max_depth, random_state=0).fit(X, t)
        Xq = binned_data(seed=4)[0]
        assert np.array_equal(exact.predict(Xq), hist.predict(Xq))

    def test_forest_identical_proba_and_importances(self):
        X, y = binned_data(seed=5)
        kw = dict(n_estimators=12, random_state=11, n_jobs=1)
        with exact_growth() as grown:
            exact = RandomForestClassifier(**kw).fit(X, y)
        hist = RandomForestClassifier(**kw).fit(X, y)
        assert grown == {"ExactDecisionTreeClassifier": 12}
        assert all(isinstance(t, ExactDecisionTreeClassifier) for t in exact.trees_)
        Xq = binned_data(seed=6)[0]
        assert np.array_equal(exact.predict_proba(Xq), hist.predict_proba(Xq))
        assert np.array_equal(
            exact.feature_importances_, hist.feature_importances_
        )

    def test_boosting_identical_proba(self):
        X, y = binned_data(seed=7)
        kw = dict(n_estimators=8, max_depth=3, random_state=13)
        with exact_growth() as grown:
            exact = GradientBoostingClassifier(**kw).fit(X, y)
        hist = GradientBoostingClassifier(**kw).fit(X, y)
        rounds = exact.trees_
        assert grown == {"ExactDecisionTreeRegressor": sum(map(len, rounds))}
        assert all(isinstance(t, ExactDecisionTreeRegressor) for r in rounds for t in r)
        Xq = binned_data(seed=8)[0]
        assert np.array_equal(exact.predict_proba(Xq), hist.predict_proba(Xq))


class TestHistDeterminism:
    def test_forest_worker_count_invariance(self):
        X, y = binned_data(seed=9, n_values=40)
        Xq = binned_data(seed=10, n_values=40)[0]
        results = []
        for n_jobs in (1, 4):
            f = RandomForestClassifier(
                n_estimators=8, random_state=3, n_jobs=n_jobs
            ).fit(X, y)
            results.append((f.predict_proba(Xq), f.feature_importances_))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    def test_boosting_worker_count_invariance(self):
        X, y = binned_data(seed=11, n_values=40)
        Xq = binned_data(seed=12, n_values=40)[0]
        results = []
        for n_jobs in (1, 4):
            g = GradientBoostingClassifier(
                n_estimators=4, random_state=3, n_jobs=n_jobs
            ).fit(X, y)
            results.append(g.predict_proba(Xq))
        assert np.array_equal(results[0], results[1])

    def test_classifier_tree_row_permutation_invariance(self):
        # Classifier histograms are integer counts, so the node table
        # cannot depend on row order (no rng is consumed with
        # max_features=None).
        rng = np.random.default_rng(13)
        X = rng.normal(size=(500, 5))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        a = DecisionTreeClassifier().fit(X, y)
        perm = rng.permutation(X.shape[0])
        b = DecisionTreeClassifier().fit(X[perm], y[perm])
        assert_same_tree(a, b)

    def test_exact_tree_row_permutation_invariance(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(400, 5))
        y = (X[:, 0] - X[:, 2] > 0).astype(int)
        a = ExactDecisionTreeClassifier().fit(X, y)
        perm = rng.permutation(X.shape[0])
        b = ExactDecisionTreeClassifier().fit(X[perm], y[perm])
        assert_same_tree(a, b)


class TestCorpusAccuracyDelta:
    """Hist may differ from the exact oracle on continuous features
    (≤256 bins); on the paper's table3/fig5-style corpus the CV accuracy
    delta must stay within the documented ±0.05 envelope."""

    @pytest.fixture(scope="class")
    def corpus_Xy(self):
        ds = collect_corpus("svc1", 120, seed=77)
        X = features_for(ds)[0]
        y = ds.labels("combined")
        return X, y

    def test_cv_accuracy_delta_bounded(self, corpus_Xy):
        X, y = corpus_Xy
        accs = {}
        for method in ("exact", "hist"):
            forest = RandomForestClassifier(
                n_estimators=30, min_samples_leaf=2, random_state=0, n_jobs=1
            )
            # n_jobs=1: fold workers would not see the oracle swap.
            with growth(method) as grown:
                pred = cross_val_predict(
                    forest, X, y, n_splits=5, random_state=0, n_jobs=1
                )
            if method == "exact":
                assert grown == {"ExactDecisionTreeClassifier": 5 * 30}, grown
            accs[method] = float(np.mean(pred == y))
        majority = np.bincount(y).max() / y.shape[0]
        assert accs["hist"] > majority, accs
        assert abs(accs["exact"] - accs["hist"]) <= 0.05, accs


class TestOneGrower:
    def test_forest_rejects_exact_naming_the_oracle(self):
        with pytest.raises(ValueError, match=r"tests/tree_oracle\.py"):
            RandomForestClassifier(tree_method="exact")

    def test_oracle_block_refuses_a_process_pool(self):
        # Workers forked before the block would grow production trees,
        # and workers forked inside it would keep the oracle afterwards,
        # so a pool request inside the block must fail loudly.
        X, y = binned_data(seed=21)
        forest = RandomForestClassifier(n_estimators=4, random_state=0, n_jobs=1)
        with exact_growth(), pytest.raises(RuntimeError, match="n_jobs=1"):
            cross_val_predict(forest, X, y, n_splits=2, n_jobs=2)

    def test_stream_model_config_builds_the_default_forest(self):
        # perfbench's STREAM_MODEL still names tree_method="hist"; it
        # must build exactly the forest the same dict without it does.
        assert STREAM_MODEL["tree_method"] == "hist"
        without = {k: v for k, v in STREAM_MODEL.items() if k != "tree_method"}
        X, y = binned_data(seed=17, n_values=40)
        Xq = binned_data(seed=18, n_values=40)[0]
        probas = [
            build_model(config).fit(X, y).predict_proba(Xq)
            for config in (STREAM_MODEL, without)
        ]
        assert np.array_equal(probas[0], probas[1])

    @pytest.mark.parametrize("regressor", [False, True], ids=["classifier", "regressor"])
    def test_single_tree_predictions_match_row_walk(self, regressor):
        """A lone tree predicts through the one FlatEnsemble traversal;
        its values must equal the per-row walk bit for bit, NaN rows
        (routed right at every split) included."""
        X, y = binned_data(seed=19, n_values=40)
        Xq = binned_data(seed=20, n_values=40)[0]
        Xq[::7, 1] = np.nan
        Xq[5] = np.nan
        if regressor:
            tree = DecisionTreeRegressor(random_state=0).fit(X, y * 1.5)
            got = tree.predict(Xq)[:, None]
        else:
            tree = DecisionTreeClassifier(random_state=0).fit(X, y)
            got = tree.predict_proba(Xq)
        assert tree.n_nodes > 20
        assert np.array_equal(got, leaf_values_reference(tree, Xq))
