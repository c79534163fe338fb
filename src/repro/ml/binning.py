"""Feature quantization for histogram-based tree growth.

:class:`Binner` maps each feature column to small integer bin codes
(``uint8``, at most 256 bins) using quantile cut points chosen from the
*observed* values.  Every tree fit bins the corpus once (ensembles once
per fit, shared by all their trees) and then finds splits by
accumulating per-bin histograms instead of re-sorting every node — the
LightGBM trick.

The cut points are actual data values (not interpolated midpoints), so
a split "code <= b" is exactly "x <= upper_bounds_[f][b]" on the raw
scale.  Fitted trees therefore store ordinary real-valued thresholds
and predict on raw feature matrices, interchangeable with the node
tables of the exact oracle splitter in ``tests/tree_oracle.py``.  NaN
and values above the last cut share the top bin, which routes right at
every split below it — the same path prediction sends NaN down
(``NaN <= t`` is false).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Binner"]


class Binner:
    """Per-feature quantile binning into ``uint8`` codes.

    Parameters
    ----------
    max_bins:
        Upper bound on bins per feature (2..256).  Features with fewer
        distinct values get one bin per value, which makes binning
        lossless there — the basis of the golden tests against the exact
        oracle splitter.

    Attributes
    ----------
    upper_bounds_:
        Per feature, the ascending cut values; bin ``b`` holds
        ``x <= upper_bounds_[f][b]`` (and above the last cut, the top
        bin).  ``len(upper_bounds_[f]) == n_bins_[f] - 1``.
    n_bins_:
        Bins actually used per feature.
    """

    def __init__(self, max_bins: int = 256):
        if not 2 <= max_bins <= 256:
            raise ValueError("max_bins must be in [2, 256]")
        self.max_bins = max_bins
        self.upper_bounds_: list[np.ndarray] | None = None
        self.n_bins_: np.ndarray | None = None
        self.n_features_: int | None = None

    def fit(self, X: np.ndarray) -> "Binner":
        """Choose cut points for every column of ``X``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] == 0:
            raise ValueError("cannot fit binner on empty data")
        bounds: list[np.ndarray] = []
        for f in range(X.shape[1]):
            col = X[:, f]
            finite = col[~np.isnan(col)]
            values, counts = np.unique(finite, return_counts=True)
            if values.shape[0] <= self.max_bins:
                # Lossless: one bin per distinct value.
                cuts = values[:-1] if values.shape[0] > 1 else values[:0]
            else:
                # Quantile cuts picked from the data values themselves
                # so thresholds stay observed values (mirroring the
                # exact oracle's "lower boundary with <=" rule).
                cum = np.cumsum(counts)
                targets = cum[-1] * np.arange(1, self.max_bins) / self.max_bins
                idx = np.searchsorted(cum, targets, side="left")
                cuts = np.unique(values[idx])
            bounds.append(np.ascontiguousarray(cuts))
        self.upper_bounds_ = bounds
        self.n_bins_ = np.array([b.shape[0] + 1 for b in bounds], dtype=np.int64)
        self.n_features_ = X.shape[1]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Bin codes for ``X`` as a ``uint8`` matrix."""
        if self.upper_bounds_ is None:
            raise RuntimeError("binner is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, but Binner "
                f"was fitted with n_features_={self.n_features_}"
            )
        codes = np.empty(X.shape, dtype=np.uint8)
        for f, cuts in enumerate(self.upper_bounds_):
            col = X[:, f]
            c = np.searchsorted(cuts, col, side="left")
            # NaN and overflow both land in the top bin, which routes
            # right at every split — matching prediction's NaN routing.
            c[np.isnan(col)] = cuts.shape[0]
            codes[:, f] = c
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return its codes."""
        return self.fit(X).transform(X)
