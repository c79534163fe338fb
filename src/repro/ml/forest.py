"""Random Forest classifier.

Bagged CART trees with per-split feature subsampling, soft-vote
aggregation, Gini feature importances (the paper's Figure 6 is built
from these), and an optional out-of-bag score.

Trees are independent once their bootstrap sample and seed are fixed,
so fitting fans out over a process pool (``n_jobs``).  All per-tree
randomness is drawn up front from a single generator in the same order
the sequential loop used, and per-tree results are accumulated in tree
order, so predictions, importances, and the OOB score are bit-identical
for every ``n_jobs`` value.

Each fit quantizes the corpus once (:class:`repro.ml.binning.Binner`)
and grows every tree from the shared bin codes with histogram split
finding.  Each worker's share of trees is one lockstep batch
(:meth:`~repro.ml.tree.DecisionTreeClassifier.fit_binned_batch`): one
step grows the next node of every tree in the share, and every tree
comes out exactly as if grown alone.  Prediction runs through one
:class:`~repro.ml.tree.FlatEnsemble`
(all trees' node tables stacked; all rows routed through all trees as
array ops), which gathers the same leaf values a per-tree walk would,
summed in tree order — bit-identical to the sequential reference.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.ml.binning import Binner
from repro.ml.tree import DecisionTreeClassifier, FlatEnsemble
from repro.ml.validation import as_2d_float, check_n_features
from repro.parallel import parallel_map, resolve_jobs

__all__ = ["RandomForestClassifier"]


def _fit_tree_batch(
    task: tuple[np.ndarray, np.ndarray, dict, list[tuple[np.ndarray, int]], Binner],
) -> list[DecisionTreeClassifier]:
    """Grow a batch of trees in lockstep on the shared bin codes (runs
    inside a pool worker)."""
    codes, y_enc, params, specs, binner = task
    trees = [
        DecisionTreeClassifier(random_state=tree_seed, **params)
        for _, tree_seed in specs
    ]
    return DecisionTreeClassifier.fit_binned_batch(
        trees, codes, y_enc, binner, samples=[sample for sample, _ in specs]
    )


class RandomForestClassifier:
    """Random Forest with sklearn-like defaults.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to each tree.
    max_features:
        Features considered per split (default ``"sqrt"``).
    max_samples:
        Fraction of the corpus each tree's bootstrap draws (default
        ``None`` = 1.0, the classic ``n``-sized bootstrap).  The
        corpus-level bins are fit once on the *full* matrix and every
        subsampled tree reuses the same uint8 codes — subsampling never
        re-bins.  ``max_samples=1.0`` is exactly equivalent to ``None``
        (same generator draws), so turning the knob off cannot perturb
        existing results.
    oob_score:
        When true, compute the out-of-bag accuracy after fitting.
    random_state:
        Seed controlling bootstraps and per-split feature draws.
    n_jobs:
        Worker processes for fitting.  ``None`` defers to the
        ``REPRO_JOBS`` environment variable (default: all cores);
        ``1`` keeps everything in-process.  Results are identical for
        every value.
    tree_method:
        Only ``"hist"`` (histogram split finding, the one grower) is
        accepted, and it is not stored; the parameter stays so that
        existing model configs naming it keep building the same forest.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        max_samples: float | None = None,
        oob_score: bool = False,
        random_state: int | None = None,
        n_jobs: int | None = None,
        tree_method: str = "hist",
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if tree_method != "hist":
            raise ValueError(
                f"tree_method must be 'hist', got {tree_method!r}; the "
                "exact splitter lives on only as the test oracle "
                "(tests/tree_oracle.py)"
            )
        if max_samples is not None and not 0.0 < max_samples <= 1.0:
            raise ValueError(
                f"max_samples must be in (0, 1], got {max_samples}"
            )
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_samples = max_samples
        self.oob_score = oob_score
        self.random_state = random_state
        self.n_jobs = n_jobs
        self.trees_: list[DecisionTreeClassifier] = []
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.feature_importances_: np.ndarray | None = None
        self.oob_score_: float | None = None
        self.binner_: Binner | None = None
        self._flat: FlatEnsemble | None = None

    def _tree_params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    @staticmethod
    def _batches(n_items: int, jobs: int) -> list[tuple[int, int]]:
        """Contiguous ``[lo, hi)`` batch bounds, one per worker."""
        n_batches = max(1, min(jobs, n_items))
        bounds = np.linspace(0, n_items, n_batches + 1).astype(int)
        return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit the ensemble on integer class labels."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y length mismatch")
        n = X.shape[0]
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._flat = None
        rng = np.random.default_rng(self.random_state)

        # Quantize once per corpus; every tree fits on (bootstrap
        # slices of) the same uint8 codes.
        self.binner_ = Binner()
        with telemetry.span("ml.bin", rows=n, features=X.shape[1]):
            codes = self.binner_.fit_transform(X)

        # Pre-draw every tree's bootstrap sample and seed, in the same
        # order the sequential loop consumed the generator — the one
        # stream of randomness all execution paths share.
        m = (
            n
            if self.max_samples is None
            else max(1, int(round(self.max_samples * n)))
        )
        specs = [
            (rng.integers(0, n, size=m), int(rng.integers(2**31 - 1)))
            for _ in range(self.n_estimators)
        ]

        jobs = resolve_jobs(self.n_jobs)
        params = self._tree_params()
        if jobs > 1 and self.n_estimators > 1:
            tasks = [
                (codes, y_enc, params, specs[lo:hi], self.binner_)
                for lo, hi in self._batches(self.n_estimators, jobs)
            ]
            batches = parallel_map(_fit_tree_batch, tasks, n_jobs=jobs)
            self.trees_ = [tree for batch in batches for tree in batch]
        else:
            self.trees_ = _fit_tree_batch((codes, y_enc, params, specs, self.binner_))

        # Accumulate importances and OOB votes in tree order so the
        # floating-point sums match the sequential path bit for bit.
        importances = np.zeros(X.shape[1])
        oob_votes = (
            np.zeros((n, self.classes_.shape[0])) if self.oob_score else None
        )
        oob_counts = np.zeros(n, dtype=np.int64) if self.oob_score else None
        for tree, (sample, _) in zip(self.trees_, specs):
            importances += tree.feature_importances_
            if self.oob_score:
                mask = np.ones(n, dtype=bool)
                mask[sample] = False
                if mask.any():
                    proba = self._tree_proba(tree, X[mask])
                    oob_votes[mask] += proba
                    oob_counts[mask] += 1

        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        if self.oob_score:
            seen = oob_counts > 0
            if seen.any():
                pred = self.classes_[np.argmax(oob_votes[seen], axis=1)]
                self.oob_score_ = float(np.mean(pred == y[seen]))
        return self

    def _tree_proba(self, tree: DecisionTreeClassifier, X: np.ndarray) -> np.ndarray:
        """A tree's probabilities aligned to the forest's class order."""
        return self._align(tree, tree.predict_proba(X))

    def _align(self, tree: DecisionTreeClassifier, proba: np.ndarray) -> np.ndarray:
        """Align precomputed tree probabilities to the forest's classes."""
        if tree.classes_.shape[0] == self.classes_.shape[0]:
            return proba
        aligned = np.zeros((proba.shape[0], self.classes_.shape[0]))
        cols = np.searchsorted(self.classes_, tree.classes_)
        aligned[:, cols] = proba
        return aligned

    def _flat_ensemble(self) -> FlatEnsemble:
        """All trees' node tables stacked, leaf probabilities aligned
        to the forest's class order (built lazily, cached per fit)."""
        if self._flat is None:
            n_classes = self.classes_.shape[0]
            values = []
            for tree in self.trees_:
                v = tree.value_
                if tree.classes_.shape[0] != n_classes:
                    aligned = np.zeros((v.shape[0], n_classes))
                    cols = np.searchsorted(self.classes_, tree.classes_)
                    aligned[:, cols] = v
                    v = aligned
                values.append(v)
            self._flat = FlatEnsemble(self.trees_, values)
        return self._flat

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Soft-vote average of the trees' leaf probabilities.

        One stacked traversal routes every row through every tree; the
        gathered leaf values are summed in tree order, so the result is
        bit-identical to the per-tree sequential loop (and independent
        of ``n_jobs``).
        """
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        X = as_2d_float(X)
        check_n_features(self, X)
        leaf = self._flat_ensemble().leaf_values(X)
        # A running sum adds the trees one after another at any shape;
        # ``leaf.sum(axis=0)`` sums them pairwise when there is one row
        # and one class.  Leaf values are class shares, never -0.0, so
        # starting from the first tree equals starting from zeros.
        proba = np.cumsum(leaf, axis=0)[-1]
        return proba / len(self.trees_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most-probable class per row."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
