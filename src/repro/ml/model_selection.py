"""Model selection: stratified k-fold cross validation.

The paper evaluates every model with 5-fold cross validation;
:func:`cross_validate` reproduces that protocol and returns the
paper's metric triple (accuracy, low-class recall, low-class
precision) computed over the pooled out-of-fold predictions.
"""

from __future__ import annotations

import copy
from typing import Iterator, Protocol

import numpy as np

from repro import telemetry
from repro.ml.metrics import EvalReport, evaluate_predictions
from repro.parallel import parallel_map

__all__ = ["StratifiedKFold", "clone", "cross_val_predict", "cross_validate"]


class Classifier(Protocol):
    """The minimal estimator contract this package uses."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier": ...  # pragma: no cover

    def predict(self, X: np.ndarray) -> np.ndarray: ...  # pragma: no cover


def clone(estimator: Classifier) -> Classifier:
    """A fresh, unfitted-state-safe copy of an estimator.

    Estimators here keep hyperparameters in plain attributes, so a deep
    copy of the (possibly fitted) object re-fit on new data behaves
    identically to a fresh instance.
    """
    return copy.deepcopy(estimator)


class StratifiedKFold:
    """K-fold splitter preserving per-class proportions.

    Parameters
    ----------
    n_splits:
        Number of folds (the paper uses 5).
    shuffle:
        Shuffle within classes before assigning folds.
    random_state:
        Shuffle seed.
    """

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int | None = 0):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, y: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_idx, test_idx)`` pairs."""
        y = np.asarray(y)
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        if y.shape[0] < self.n_splits:
            raise ValueError("need at least n_splits samples")
        classes = np.unique(y)
        # Classes smaller than n_splits are spread round-robin: some
        # folds simply will not contain them (matching sklearn's
        # behaviour of warning rather than failing).
        rng = np.random.default_rng(self.random_state)
        fold_of = np.empty(y.shape[0], dtype=np.int64)
        for c in classes:
            idx = np.flatnonzero(y == c)
            if self.shuffle:
                idx = rng.permutation(idx)
            fold_of[idx] = np.arange(idx.shape[0]) % self.n_splits
        for fold in range(self.n_splits):
            test = np.flatnonzero(fold_of == fold)
            train = np.flatnonzero(fold_of != fold)
            yield train, test


def _fit_predict_fold(
    task: tuple[Classifier, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Fit a fold's clone and predict its test split (pool worker)."""
    estimator, X, y, train, test = task
    with telemetry.span(
        "cv.fold", train_rows=int(train.shape[0]), test_rows=int(test.shape[0])
    ) as sp:
        model = clone(estimator)
        with telemetry.span("cv.fold.fit"):
            model.fit(X[train], y[train])
        with telemetry.span("cv.fold.predict"):
            predictions = model.predict(X[test])
        sp.set(model=type(estimator).__name__)
    return predictions


def cross_val_predict(
    estimator: Classifier,
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 5,
    random_state: int | None = 0,
    n_jobs: int | None = None,
) -> np.ndarray:
    """Out-of-fold predictions for every sample.

    Folds are independent (each clones the estimator and derives its
    randomness from the estimator's own ``random_state``), so they run
    through the process pool (``n_jobs``; defaults to ``REPRO_JOBS``)
    with predictions identical to the sequential path.  Estimators with
    an ``n_jobs`` attribute stay sequential inside pool workers — the
    fold level owns the cores.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y length mismatch")
    with telemetry.span(
        "cv",
        folds=n_splits,
        rows=int(X.shape[0]),
        model=type(estimator).__name__,
    ):
        predictions = np.empty_like(y)
        splitter = StratifiedKFold(n_splits=n_splits, random_state=random_state)
        splits = list(splitter.split(y))
        tasks = [(estimator, X, y, train, test) for train, test in splits]
        fold_preds = parallel_map(_fit_predict_fold, tasks, n_jobs=n_jobs)
        for (_, test), pred in zip(splits, fold_preds):
            predictions[test] = pred
        telemetry.count("cv.folds", n_splits)
    return predictions


def cross_validate(
    estimator: Classifier,
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 5,
    positive: int = 0,
    random_state: int | None = 0,
    n_jobs: int | None = None,
) -> EvalReport:
    """The paper's evaluation: k-fold CV, pooled A/R/P + confusion."""
    y_pred = cross_val_predict(
        estimator, X, y, n_splits=n_splits, random_state=random_state, n_jobs=n_jobs
    )
    n_classes = int(np.asarray(y).max()) + 1
    return evaluate_predictions(y, y_pred, positive=positive, n_classes=max(n_classes, 3))
