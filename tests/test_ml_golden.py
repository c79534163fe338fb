"""Golden digests of tree growth on continuous data.

The exact-oracle suite (``tests/test_ml_hist.py``) pins the grower on
pre-binned data only.  These digests pin it on continuous features,
where binning is lossy: the node tables, ``feature_importances_`` and
predictions of the paper's 60-tree forest (at one and two workers), its
5-fold ``cross_val_predict`` output, a ``max_features=None`` forest
(the sibling-subtraction path), row-subsampled gradient boosting, and
a lone classifier and regressor.

The digests were computed before the lockstep grower replaced the
recursive one and must never be regenerated to make a change pass: a
mismatch means the grower changed a tree.  The ten-class digest (the
paper's forest and a ``max_features=None`` forest on ten classes) was
computed before the class-major split search, under the same rule.

The data are synthetic, drawn from a fixed ``numpy`` Generator.  The
3-class set has a minority class of two rows, so some bootstraps miss
it and those trees keep a 2-class ``classes_`` and leaf-value width.
"""

import hashlib

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import cross_val_predict
from repro.ml import tree as tree_module
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

#: The paper's forest (``experiments.common.default_forest_config``).
PAPER_FOREST = dict(
    n_estimators=60, min_samples_leaf=2, max_features="sqrt", random_state=0
)

GOLDEN = {
    "paper_forest": "6aa2a43d61bbf428d28187d4",
    "paper_forest_cv": "126c2d053790aea9d15e7d0f",
    "subtraction_forest": "d41de8f5f5964bd65cae97f0",
    "boosting_subsample": "28f982d9d3ffa705ad415e16",
    "lone_classifier": "8cdb8500e913953b9a780ae2",
    "lone_regressor": "d462bd91a7f2dc6c83ed071e",
    "coarse_regression": "a68bbee796e50a186a5109eb",
    # Computed before the class-major split search replaced the
    # class-minor one; numpy sums 8 or more classes pairwise.
    "ten_class_forests": "720f3c09593b880a2d994413",
}


def continuous_data(seed=0, n=360, n_features=12):
    """Continuous features on mixed scales; labels 0/1 from a noisy
    score, plus a two-row minority class 2."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.normal(size=n),
            rng.lognormal(size=n),
            rng.exponential(2.0, size=n),
            rng.uniform(-5.0, 5.0, size=n),
        ]
        * (n_features // 4)
    )
    X += rng.normal(scale=0.01, size=X.shape)
    score = X[:, 0] + 0.5 * np.log(X[:, 1]) - 0.2 * X[:, 2] + 0.1 * X[:, 3]
    y = (score > np.median(score)).astype(np.int64)
    flip = rng.random(n) < 0.15
    y[flip] = 1 - y[flip]
    y[rng.choice(n, size=2, replace=False)] = 2
    return X, y


def query_rows(seed=1, n=200):
    X, _ = continuous_data(seed=seed, n=n)
    X[::17, 3] = np.nan
    return X


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays):
        for a in arrays:
            a = np.ascontiguousarray(a)
            self._h.update(f"{a.dtype.str}{a.shape}".encode())
            self._h.update(a.tobytes())
        return self

    def add_tree(self, tree):
        self.add(
            tree.feature_,
            tree.threshold_,
            tree.left_,
            tree.right_,
            tree.value_,
            tree.feature_importances_,
        )
        if hasattr(tree, "classes_"):
            self.add(tree.classes_)
        return self

    def hexdigest(self):
        return self._h.hexdigest()[:24]


def forest_digest(forest, Xq):
    d = Digest()
    for tree in forest.trees_:
        d.add_tree(tree)
    return d.add(forest.feature_importances_, forest.predict_proba(Xq)).hexdigest()


@pytest.fixture(scope="module")
def data():
    return continuous_data()


def test_minority_class_missing_from_some_bootstraps(data):
    X, y = data
    forest = RandomForestClassifier(n_jobs=1, **PAPER_FOREST).fit(X, y)
    widths = {tree.value_.shape[1] for tree in forest.trees_}
    assert widths == {2, 3}
    for tree in forest.trees_:
        assert tree.value_.shape[1] == tree.classes_.shape[0]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_paper_forest(data, n_jobs):
    X, y = data
    forest = RandomForestClassifier(n_jobs=n_jobs, **PAPER_FOREST).fit(X, y)
    assert forest_digest(forest, query_rows()) == GOLDEN["paper_forest"]


@pytest.mark.parametrize("n_jobs", [1, 2, 3, 4])
def test_paper_forest_cross_val_predict(data, n_jobs):
    X, y = data
    forest = RandomForestClassifier(**PAPER_FOREST)
    pred = cross_val_predict(forest, X, y, n_splits=5, random_state=0, n_jobs=n_jobs)
    assert Digest().add(pred).hexdigest() == GOLDEN["paper_forest_cv"]


def subtraction_forest_digest(X, y):
    forest = RandomForestClassifier(
        n_estimators=8, max_features=None, random_state=3, n_jobs=1
    ).fit(X, y)
    return forest_digest(forest, query_rows())


def boosting_digest(X, y):
    model = GradientBoostingClassifier(
        n_estimators=10, max_depth=3, subsample=0.8, random_state=5
    ).fit(X, y)
    d = Digest()
    for round_trees in model.trees_:
        for tree in round_trees:
            d.add_tree(tree)
    return d.add(model.feature_importances_, model.predict_proba(query_rows())).hexdigest()


def lone_classifier_digest(X, y):
    tree = DecisionTreeClassifier(max_features=4, random_state=9).fit(X, y)
    return Digest().add_tree(tree).add(tree.predict_proba(query_rows())).hexdigest()


def lone_regressor_digest(X, y):
    target = X[:, 0] * X[:, 2] + np.sin(X[:, 3])
    tree = DecisionTreeRegressor(max_depth=6, random_state=0).fit(X, target)
    return Digest().add_tree(tree).add(tree.predict(query_rows())).hexdigest()


def coarse_digest(X, y):
    """Regression on coarse features, so bins hold many rows each and
    the row order of every bin's float sums shows in the digest."""
    coarse = np.floor(X * 2.0)
    target = X[:, 0] * X[:, 2] + np.sin(X[:, 3])
    tree = DecisionTreeRegressor(min_samples_leaf=3, random_state=0).fit(coarse, target)
    model = GradientBoostingClassifier(
        n_estimators=6, max_depth=4, subsample=0.8, random_state=2
    ).fit(coarse, y)
    d = Digest().add_tree(tree).add(tree.predict(query_rows()))
    for round_trees in model.trees_:
        for t in round_trees:
            d.add_tree(t)
    return d.add(model.predict_proba(np.floor(query_rows() * 2.0))).hexdigest()


def ten_class_data(seed=2, n=400, n_classes=10):
    """The continuous features, labelled by deciles of a noisy score."""
    X, _ = continuous_data(seed=seed, n=n)
    rng = np.random.default_rng(seed + 100)
    score = X[:, 0] + 0.5 * np.log(X[:, 1]) - 0.2 * X[:, 2] + 0.1 * X[:, 3]
    noisy = score + rng.normal(scale=0.3, size=n)
    edges = np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1])
    return X, np.searchsorted(edges, noisy)


def ten_class_digest():
    X, y = ten_class_data()
    d = Digest()
    for params in (PAPER_FOREST, dict(n_estimators=8, max_features=None, random_state=3)):
        forest = RandomForestClassifier(n_jobs=1, **params).fit(X, y)
        for tree in forest.trees_:
            d.add_tree(tree)
        d.add(forest.feature_importances_, forest.predict_proba(query_rows()))
    return d.hexdigest()


def test_ten_class_forests():
    assert ten_class_digest() == GOLDEN["ten_class_forests"]


def test_subtraction_forest(data):
    assert subtraction_forest_digest(*data) == GOLDEN["subtraction_forest"]


def test_boosting_subsample(data):
    assert boosting_digest(*data) == GOLDEN["boosting_subsample"]


def test_lone_classifier(data):
    assert lone_classifier_digest(*data) == GOLDEN["lone_classifier"]


def test_lone_regressor(data):
    assert lone_regressor_digest(*data) == GOLDEN["lone_regressor"]


def test_coarse_regression(data):
    assert coarse_digest(*data) == GOLDEN["coarse_regression"]


@pytest.mark.parametrize(
    "step_cells, hist_cells, carry_bytes",
    [(1, 1, 1), (1 << 30, 1 << 40, 1 << 40)],
    ids=["every-node-alone", "one-group-per-step"],
)
def test_grouping_keeps_the_digests(data, monkeypatch, step_cells, hist_cells, carry_bytes):
    """The working-set bounds only choose code paths: with every node
    grown alone (the per-node path, one tree per subtraction batch) or
    every node of a step in one group, the trees stay the same."""
    monkeypatch.setattr(tree_module, "STEP_CELLS", step_cells)
    monkeypatch.setattr(tree_module, "HIST_CELLS", hist_cells)
    monkeypatch.setattr(tree_module, "CARRY_BYTES", carry_bytes)
    X, y = data
    forest = RandomForestClassifier(n_jobs=1, **PAPER_FOREST).fit(X, y)
    assert forest_digest(forest, query_rows()) == GOLDEN["paper_forest"]
    assert subtraction_forest_digest(X, y) == GOLDEN["subtraction_forest"]
    assert boosting_digest(X, y) == GOLDEN["boosting_subsample"]
    assert lone_classifier_digest(X, y) == GOLDEN["lone_classifier"]
    assert lone_regressor_digest(X, y) == GOLDEN["lone_regressor"]
    assert coarse_digest(X, y) == GOLDEN["coarse_regression"]
    assert ten_class_digest() == GOLDEN["ten_class_forests"]
