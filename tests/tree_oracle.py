"""The exact CART splitter: golden oracle for histogram tree growth.

:mod:`repro.ml.tree` grows every tree by histogram split finding.  This
module keeps the exact splitter it is tested against — sort every
candidate feature at every node and score every threshold in one
cumulative-sum pass — as subclasses of the production trees.  They
reuse the production node table, candidate count, criteria and
prediction, so an oracle tree differs from a production one only in
how it picks splits.  It also keeps the per-node candidate-feature draw
(one ``Generator.choice`` per split node) that the grower's bulk draws
reproduce.  On pre-binned data (every column has few enough distinct
values that binning is lossless) the two growers must build identical
node tables; ``tests/test_ml_hist.py`` holds that contract.

Ensembles are grown by the oracle inside :func:`exact_growth`, which
swaps module globals of :mod:`repro.ml.forest` and
:mod:`repro.ml.boosting` for the duration of a ``with`` block: an
identity binner hands the raw rows to ``fit_binned_batch``, and the
oracle trees grow on them, one at a time.  The swap lives in this process only: pool workers
forked before the block would grow production trees, and workers forked
inside it would keep growing oracle trees after it ends.  So the block
makes every process-pool request (:mod:`repro.parallel`) raise, and
oracle fits and cross-validation run with ``n_jobs=1``.  The block
yields a count of the oracle trees grown, so a test can prove the
oracle really ran.

:func:`leaf_values_reference` is the per-row Python walk that the
flattened traversal (:class:`repro.ml.tree.FlatEnsemble`) must match
bit for bit.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np

from repro import parallel
from repro.ml import boosting, forest
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.validation import as_2d_float, check_n_features

__all__ = [
    "ExactDecisionTreeClassifier",
    "ExactDecisionTreeRegressor",
    "exact_growth",
    "growth",
    "leaf_values_reference",
]


class _ExactGrowth:
    """Exact split search, mixed in ahead of a production tree class."""

    #: Oracle trees grown, by class name; :func:`exact_growth` swaps in
    #: a fresh counter for each block.
    grown: Counter = Counter()

    @classmethod
    def fit_binned_batch(cls, trees, X, targets, binner, samples=None):
        """Inside :func:`exact_growth` an ensemble's "codes" are its raw
        rows (the binner is the identity), so each tree is a plain fit
        on its own rows."""
        targets = np.asarray(targets)
        for i, tree in enumerate(trees):
            rows = slice(None) if samples is None else samples[i]
            y = targets if targets.ndim == 1 else targets[i]
            tree.fit(X[rows], y[rows])
        return trees

    def _fit_tree(self, X: np.ndarray, y: np.ndarray) -> None:
        self.grown[type(self).__name__] += 1
        X = as_2d_float(X)
        self.n_features_ = X.shape[1]
        self._reset_nodes()
        importances = np.zeros(X.shape[1])
        rng = np.random.default_rng(self.random_state)
        self._build(X, y, depth=0, rng=rng, importances=importances, n_total=X.shape[0])
        self._finalize_nodes()
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances

    def _candidate_features(
        self, n_features: int, rng: np.random.Generator
    ) -> np.ndarray:
        """This node's candidate features: one ``Generator.choice`` per
        split node, the stream the lockstep grower's bulk draws must
        reproduce."""
        mtry = self._n_candidate_features(n_features)
        if mtry < n_features:
            return rng.choice(n_features, size=mtry, replace=False)
        return np.arange(n_features)

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float, np.ndarray] | None:
        """Best (feature, threshold, left-mask) at this node, or None."""
        n = X.shape[0]
        features = self._candidate_features(X.shape[1], rng)
        best = None
        best_score = np.inf
        min_leaf = self.min_samples_leaf
        for f in features:
            order = np.argsort(X[:, f], kind="stable")
            x_sorted = X[order, f]
            y_sorted = y[order]
            # Valid split points: value changes and both children large
            # enough.
            valid = x_sorted[:-1] < x_sorted[1:]
            if min_leaf > 1:
                valid = valid.copy()
                valid[: min_leaf - 1] = False
                valid[len(valid) - (min_leaf - 1):] = False
            if not valid.any():
                continue
            imp_left, imp_right = self._split_impurities(y_sorted)
            n_left = np.arange(1, n)
            n_right = n - n_left
            weighted = (n_left * imp_left + n_right * imp_right) / n
            weighted = np.where(valid, weighted, np.inf)
            idx = int(np.argmin(weighted))
            if weighted[idx] < best_score:
                best_score = weighted[idx]
                # Split at the lower boundary value with <=: the
                # midpoint of two adjacent floats can round up to the
                # higher one, which would leave the right child empty.
                best = (int(f), float(x_sorted[idx]), best_score)

        if best is None:
            return None
        f, threshold, _ = best
        left_mask = X[:, f] <= threshold
        return f, threshold, left_mask

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        importances: np.ndarray,
        n_total: int,
    ) -> int:
        n = X.shape[0]
        impurity = self._node_impurity(y)
        is_leaf = (
            n < self.min_samples_split
            or impurity <= 1e-12
            or (self.max_depth is not None and depth >= self.max_depth)
        )
        split = None if is_leaf else self._best_split(X, y, rng)
        if split is None:
            return self._append_node(-1, 0.0, self._leaf_value(y))

        f, threshold, left_mask = split
        n_left = int(left_mask.sum())
        n_right = n - n_left
        left_imp = self._node_impurity(y[left_mask])
        right_imp = self._node_impurity(y[~left_mask])
        decrease = impurity - (n_left * left_imp + n_right * right_imp) / n
        importances[f] += decrease * n / n_total

        node_index = self._append_node(f, threshold, self._leaf_value(y))
        left = self._build(X[left_mask], y[left_mask], depth + 1, rng, importances, n_total)
        right = self._build(X[~left_mask], y[~left_mask], depth + 1, rng, importances, n_total)
        self._build_left[node_index] = left
        self._build_right[node_index] = right
        return node_index


class ExactDecisionTreeClassifier(_ExactGrowth, DecisionTreeClassifier):
    """Gini CART classifier grown by the exact splitter."""

    def _fit_tree(self, X: np.ndarray, y: np.ndarray) -> None:
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self._n_classes = self.classes_.shape[0]
        super()._fit_tree(X, y_enc)

    def _split_impurities(self, y_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gini of the left/right children for every split point ``i``
        (``y_sorted[: i + 1]`` goes left); arrays have length ``n - 1``."""
        n = y_sorted.shape[0]
        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), y_sorted] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left_counts = cum[:-1]
        right_counts = cum[-1] - left_counts
        n_left = np.arange(1, n, dtype=np.float64)[:, None]
        n_right = (n - n_left.ravel())[:, None]
        gini_left = 1.0 - np.sum((left_counts / n_left) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right) ** 2, axis=1)
        return gini_left, gini_right


class ExactDecisionTreeRegressor(_ExactGrowth, DecisionTreeRegressor):
    """Variance CART regressor grown by the exact splitter."""

    def _split_impurities(self, y_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Variance of the left/right children for every split point."""
        n = y_sorted.shape[0]
        cum = np.cumsum(y_sorted)
        cum2 = np.cumsum(y_sorted**2)
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        sum_left = cum[:-1]
        sum_right = cum[-1] - sum_left
        sum2_left = cum2[:-1]
        sum2_right = cum2[-1] - sum2_left
        var_left = sum2_left / n_left - (sum_left / n_left) ** 2
        var_right = sum2_right / n_right - (sum_right / n_right) ** 2
        # Numerical noise can push variances a hair below zero.
        return np.maximum(var_left, 0.0), np.maximum(var_right, 0.0)


class _IdentityBinner:
    """Stands in for ``Binner`` inside :func:`exact_growth`: the "codes"
    an ensemble hands its trees are the raw rows."""

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64)


def _in_process_only(*args, **kwargs):
    raise RuntimeError(
        "exact_growth() swaps globals in this process only; fit and "
        "cross-validate with n_jobs=1"
    )


@contextmanager
def exact_growth():
    """Forests and boosting fitted inside this block grow oracle trees.

    Yields a :class:`~collections.Counter` of the oracle trees grown in
    the block, by class name.
    """
    grown = Counter()
    with mock.patch.object(_ExactGrowth, "grown", grown), mock.patch.object(
        parallel, "_executor", _in_process_only
    ), mock.patch.multiple(
        forest,
        Binner=_IdentityBinner,
        DecisionTreeClassifier=ExactDecisionTreeClassifier,
    ), mock.patch.multiple(
        boosting,
        Binner=_IdentityBinner,
        DecisionTreeRegressor=ExactDecisionTreeRegressor,
    ):
        yield grown


def growth(method: str):
    """The context an ``"exact"``/``"hist"`` test parametrization fits
    under: the oracle for ``"exact"``, production code for ``"hist"``
    (which yields an empty count)."""
    if method == "exact":
        return exact_growth()
    if method == "hist":
        return nullcontext(Counter())
    raise ValueError(f"unknown tree growth method {method!r}")


def leaf_values_reference(tree, X: np.ndarray) -> np.ndarray:
    """Per-row Python walk of one fitted tree: the golden reference the
    flattened traversal is equivalence-tested (and benchmarked) against."""
    if tree.feature_ is None:
        raise RuntimeError("tree is not fitted")
    X = as_2d_float(X)
    check_n_features(tree, X)
    out = np.empty((X.shape[0],) + tree.value_.shape[1:])
    for i in range(X.shape[0]):
        j = 0
        while tree.feature_[j] >= 0:
            if X[i, tree.feature_[j]] <= tree.threshold_[j]:
                j = tree.left_[j]
            else:
                j = tree.right_[j]
        out[i] = tree.value_[j]
    return out
