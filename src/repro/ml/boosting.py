"""Gradient-boosted trees (the paper's "XGBoost" entry).

Multiclass gradient boosting with a softmax objective: each round fits
one shallow regression tree per class to the negative gradient
(residual between the one-hot target and the current softmax
probability), with shrinkage and optional row subsampling — the core of
what XGBoost does, minus the second-order weights and regularized leaf
solver.

Each fit bins the corpus once up front; every round's class trees
then grow as one lockstep batch
(:meth:`~repro.ml.tree.DecisionTreeRegressor.fit_binned_batch`) on
(row-subsampled slices of) the shared uint8 codes with histogram
split finding.  Prediction stacks all fitted trees into
one :class:`~repro.ml.tree.FlatEnsemble` and routes every row through
every tree in a single vectorized traversal, accumulating scores in
(round, class) order — bit-identical to the sequential reference loop.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.ml.binning import Binner
from repro.ml.tree import DecisionTreeRegressor, FlatEnsemble
from repro.ml.validation import as_2d_float, check_n_features
from repro.parallel import parallel_map, resolve_jobs

__all__ = ["GradientBoostingClassifier"]


def _fit_round_trees(
    task: tuple[np.ndarray, np.ndarray, int, int, list[int], Binner],
) -> list[DecisionTreeRegressor]:
    """Grow one round's per-class trees in lockstep on the shared bin
    codes, one residual row per tree (runs inside a pool worker)."""
    code_rows, residuals, max_depth, min_samples_leaf, seeds, binner = task
    trees = [
        DecisionTreeRegressor(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf, random_state=seed
        )
        for seed in seeds
    ]
    return DecisionTreeRegressor.fit_binned_batch(trees, code_rows, residuals, binner)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class GradientBoostingClassifier:
    """Softmax gradient boosting over regression trees.

    Parameters
    ----------
    n_estimators:
        Boosting rounds (each round grows one tree per class).
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth:
        Depth of the (weak) base trees.
    subsample:
        Fraction of rows drawn (without replacement) per round.
    random_state:
        Seed for subsampling and tree feature draws.
    n_jobs:
        Worker processes for the per-round class trees.  Boosting is
        inherently sequential across rounds, so only the (few) class
        trees of one round fit concurrently — worthwhile for large
        corpora, overhead-bound for small ones, hence the default of
        1 rather than the ``REPRO_JOBS`` environment default used by
        the forest.  Results are identical for every value.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 1.0,
        min_samples_leaf: int = 1,
        random_state: int | None = None,
        n_jobs: int = 1,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.n_jobs = n_jobs
        self.trees_: list[list[DecisionTreeRegressor]] = []
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.binner_: Binner | None = None
        self._base_scores: np.ndarray | None = None
        self._flat: FlatEnsemble | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        """Fit ``n_estimators`` rounds of per-class trees."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y length mismatch")
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._flat = None
        n, k = X.shape[0], self.classes_.shape[0]
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y_enc] = 1.0
        # Start from the log class priors.
        priors = np.clip(onehot.mean(axis=0), 1e-9, None)
        self._base_scores = np.log(priors)
        scores = np.tile(self._base_scores, (n, 1))
        rng = np.random.default_rng(self.random_state)
        self.trees_ = []

        # Bin once per corpus; every round reuses the codes.
        self.binner_ = Binner()
        with telemetry.span("ml.bin", rows=n, features=X.shape[1]):
            codes = self.binner_.fit_transform(X)

        for _ in range(self.n_estimators):
            proba = _softmax(scores)
            residual = onehot - proba
            if self.subsample < 1.0:
                m = max(1, int(round(self.subsample * n)))
                rows = rng.choice(n, size=m, replace=False)
            else:
                rows = np.arange(n)
            # Seeds come off the shared generator in class order — the
            # same stream the sequential loop consumed — then the k
            # independent class trees grow as one lockstep batch (split
            # over the workers when there are several).
            seeds = [int(rng.integers(2**31 - 1)) for _ in range(k)]
            code_rows = codes[rows]
            residuals = residual[rows].T
            jobs = min(resolve_jobs(self.n_jobs), k)
            bounds = np.linspace(0, k, jobs + 1).astype(int)
            tasks = [
                (code_rows, residuals[lo:hi], self.max_depth,
                 self.min_samples_leaf, seeds[lo:hi], self.binner_)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            if len(tasks) > 1:
                batches = parallel_map(
                    _fit_round_trees, tasks, n_jobs=jobs, chunksize=1
                )
            else:
                batches = [_fit_round_trees(tasks[0])]
            round_trees = [tree for batch in batches for tree in batch]
            for c, tree in enumerate(round_trees):
                scores[:, c] += self.learning_rate * tree.predict(X)
            self.trees_.append(round_trees)
        return self

    def _raw_scores(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("model is not fitted")
        X = as_2d_float(X)
        check_n_features(self, X)
        if self._flat is None:
            self._flat = FlatEnsemble(
                [tree for round_trees in self.trees_ for tree in round_trees]
            )
        # One stacked traversal for all rounds and classes; scores
        # accumulate in (round, class) order, matching the sequential
        # per-tree loop bit for bit.
        leaf = self._flat.leaf_values(X)[:, :, 0]
        scores = np.tile(self._base_scores, (X.shape[0], 1))
        k = self.classes_.shape[0]
        i = 0
        for _ in self.trees_:
            for c in range(k):
                scores[:, c] += self.learning_rate * leaf[i]
                i += 1
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        return _softmax(self._raw_scores(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most-probable class per row."""
        return self.classes_[np.argmax(self._raw_scores(X), axis=1)]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-decrease importances across all trees."""
        if not self.trees_:
            raise RuntimeError("model is not fitted")
        importances = np.zeros_like(self.trees_[0][0].feature_importances_)
        for round_trees in self.trees_:
            for tree in round_trees:
                importances += tree.feature_importances_
        total = importances.sum()
        return importances / total if total > 0 else importances
