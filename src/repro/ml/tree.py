"""CART decision trees grown by histogram split finding.

Features are quantized once per fit into ``uint8`` bin codes
(:class:`repro.ml.binning.Binner`); each node accumulates per-bin
class/gradient histograms with one ``np.bincount`` and scores every
boundary of every candidate feature from the cumulative histogram in a
single set of array ops.  When all features are candidates
(``max_features=None``, the boosting configuration) each child's
histogram is derived by scanning only the *smaller* sibling and
subtracting it from the parent's — the LightGBM recipe; with per-split
feature subsampling each node instead scans just its few candidate
columns, which is cheaper than maintaining full-width histograms for
subtraction.

The exact (sort every candidate feature at every node) CART splitter is
not part of the library: it lives in ``tests/tree_oracle.py`` as the
golden reference.  On pre-binned data (every distinct value its own
bin) histogram growth reproduces it node for node; on raw data the two
differ only by the quantization of candidate thresholds (bounded
accuracy deltas, asserted by the golden-equivalence suite).

Fitted trees are stored as a flattened node table — ``feature_``,
``threshold_``, ``left_``, ``right_``, ``value_`` parallel arrays with
``feature_ < 0`` marking leaves.  Thresholds are the bin upper bounds,
which are observed data values, so prediction never needs the binner:
every prediction, single tree or ensemble, routes rows through
:class:`FlatEnsemble`, which steps all rows (and all stacked trees)
down level by level as pure array ops.

:class:`DecisionTreeClassifier` minimizes Gini impurity;
:class:`DecisionTreeRegressor` minimizes within-node variance (used as
the base learner of gradient boosting).
"""

from __future__ import annotations

import numpy as np

from repro.ml.binning import Binner
from repro.ml.validation import as_2d_float, check_n_features

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor", "FlatEnsemble"]


class FlatEnsemble:
    """Node tables of many fitted trees stacked into one flat table.

    ``leaf_values(X)`` routes every row of ``X`` through every tree
    simultaneously: one index array of shape ``(n_trees, n_rows)``
    steps down all trees level by level, and leaves self-loop until the
    deepest tree finishes.  The per-tree leaf values it gathers are
    bit-identical to walking each tree separately, so callers can sum
    them in tree order and match the sequential reference exactly.
    """

    __slots__ = ("feature", "threshold", "children", "value", "starts")

    def __init__(self, trees, values=None):
        if not trees:
            raise ValueError("FlatEnsemble needs at least one fitted tree")
        if values is None:
            values = [tree.value_ for tree in trees]
        sizes = np.array([tree.feature_.shape[0] for tree in trees])
        self.starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(
            np.int32
        )
        self.feature = np.concatenate(
            [t.feature_ for t in trees]
        ).astype(np.int32)
        self.threshold = np.concatenate([t.threshold_ for t in trees])
        # Children interleaved as (right, left) pairs so one gather with
        # offset ``2*node + go_left`` replaces separate left/right
        # gathers plus a select.  ``go_left`` is ``x <= threshold``,
        # which is False for NaN — landing on the right child at offset
        # +0, the same routing the per-row walk uses.  Leaves self-loop
        # (both children point back at the leaf), which lets traversal
        # defer compaction until enough cursors have finished to make
        # it pay — finished cursors just spin in place meanwhile.
        left = np.concatenate(
            [t.left_ + off for t, off in zip(trees, self.starts)]
        )
        right = np.concatenate(
            [t.right_ + off for t, off in zip(trees, self.starts)]
        )
        leaf = self.feature < 0
        node_idx = np.arange(self.feature.shape[0], dtype=np.int64)
        self.children = np.empty(2 * self.feature.shape[0], dtype=np.int32)
        self.children[0::2] = np.where(leaf, node_idx, right)
        self.children[1::2] = np.where(leaf, node_idx, left)
        self.value = np.concatenate(values, axis=0)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values, shape ``(n_trees, n_rows, value_dim)``.

        Rows are processed in blocks sized to keep the ``(tree, row)``
        cursor arrays cache-resident; within a block one flat cursor
        array steps down all trees level by level, and cursors that
        reach a leaf scatter their leaf index into the output and are
        compacted out of the active set — total work is the sum of
        actual path lengths rather than ``n_trees * n_rows * max_depth``.
        """
        X = np.ascontiguousarray(X)
        n, n_feat = X.shape
        n_trees = self.starts.shape[0]
        res = np.empty((n_trees, n, self.value.shape[1]))
        block = max(512, 2**18 // n_trees)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            self._leaf_values_block(X[lo:hi], res[:, lo:hi])
        return res

    def _leaf_values_block(self, X: np.ndarray, res: np.ndarray) -> None:
        n, n_feat = X.shape
        x_flat = X.reshape(-1)
        n_trees = self.starts.shape[0]
        children, feat, thr = self.children, self.feature, self.threshold
        out = np.repeat(self.starts, n)
        # Cursor state: current node, flattened row offset into X, and
        # output slot for every (tree, row) pair.  A cursor on a leaf
        # self-loops harmlessly (its feature is -1, so the gather reads
        # a junk-but-in-bounds cell and the children pair points back
        # at the leaf), so compaction runs only once at least 1/8 of
        # the active cursors have finished — near-full levels skip the
        # scatter/compact passes entirely.
        cur = out
        row_off = np.tile(np.arange(n, dtype=np.int32) * n_feat, n_trees)
        pos = np.arange(out.shape[0], dtype=np.int32)
        f = feat.take(cur)
        idx = np.nonzero(f >= 0)[0]
        cur, row_off, pos, f = (
            cur.take(idx), row_off.take(idx), pos.take(idx), f.take(idx)
        )
        while cur.size:
            go_left = x_flat.take(row_off + f) <= thr.take(cur)
            cur = children.take(cur * 2 + go_left)
            f = feat.take(cur)
            alive = f >= 0
            n_alive = np.count_nonzero(alive)
            if n_alive == 0:
                out[pos] = cur
                break
            if n_alive <= cur.size - (cur.size >> 3):
                done = np.nonzero(~alive)[0]
                out[pos.take(done)] = cur.take(done)
                idx = np.nonzero(alive)[0]
                cur, row_off, pos, f = (
                    cur.take(idx), row_off.take(idx), pos.take(idx), f.take(idx)
                )
        res[...] = self.value.take(out, axis=0).reshape(n_trees, n, -1)


class _BaseTree:
    """Shared CART construction for both criteria."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.n_features_: int | None = None
        self.feature_importances_: np.ndarray | None = None
        # Flattened node table (parallel arrays; feature_ < 0 = leaf).
        self.feature_: np.ndarray | None = None
        self.threshold_: np.ndarray | None = None
        self.left_: np.ndarray | None = None
        self.right_: np.ndarray | None = None
        self.value_: np.ndarray | None = None
        self._hist_B: int | None = None
        self._hist_subtract: bool = False

    # -- criterion hooks -------------------------------------------------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _node_impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _hist_prepare(self, codes: np.ndarray, y: np.ndarray) -> None:
        """Precompute per-fit accumulation state (e.g. a fused,
        offset-prefixed index base) so each node's histogram reduces to
        gathers and ``bincount`` calls with no per-node index math."""
        raise NotImplementedError

    def _hist_cleanup(self) -> None:
        """Drop the accumulation state (trees are pickled across
        process boundaries; the node table alone should travel)."""
        raise NotImplementedError

    def _hist_accumulate(
        self, rows: np.ndarray, features: np.ndarray | None = None
    ) -> np.ndarray:
        """Histogram of the node's rows over bin codes — all features
        (``features=None``, used by sibling subtraction) or just the
        candidate columns."""
        raise NotImplementedError

    def _hist_best(
        self, hist_cand: np.ndarray, n: int, min_leaf: int
    ) -> tuple[int, int] | None:
        """Best ``(candidate_index, boundary_bin)`` over a stack of
        per-feature histograms, or ``None`` when no boundary is valid.

        Scores are computed only at *valid* boundaries (occupied bin,
        both children at least ``min_leaf``), gathered in feature-major
        ascending-bin order — the same order, the same first-minimum
        tie-break, and the same float expressions as the exact oracle
        splitter, so identical counts give identical choices."""
        raise NotImplementedError

    # -- node table ------------------------------------------------------
    def _reset_nodes(self) -> None:
        self._build_feature: list[int] = []
        self._build_threshold: list[float] = []
        self._build_left: list[int] = []
        self._build_right: list[int] = []
        self._build_value: list[np.ndarray] = []

    def _append_node(self, feature: int, threshold: float, value: np.ndarray) -> int:
        self._build_feature.append(feature)
        self._build_threshold.append(threshold)
        self._build_left.append(-1)
        self._build_right.append(-1)
        self._build_value.append(value)
        return len(self._build_feature) - 1

    def _finalize_nodes(self) -> None:
        self.feature_ = np.asarray(self._build_feature, dtype=np.int64)
        self.threshold_ = np.asarray(self._build_threshold, dtype=np.float64)
        self.left_ = np.asarray(self._build_left, dtype=np.int64)
        self.right_ = np.asarray(self._build_right, dtype=np.int64)
        self.value_ = np.stack(self._build_value)
        # Drop the build lists: forests pickle fitted trees across
        # process boundaries and the arrays alone are half the size.
        del self._build_feature, self._build_threshold
        del self._build_left, self._build_right, self._build_value

    # ---------------------------------------------------------------------
    def _n_candidate_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(self.max_features, (int, np.integer)):
            if not 1 <= self.max_features <= n_features:
                raise ValueError("max_features out of range")
            return int(self.max_features)
        raise ValueError(f"unsupported max_features: {self.max_features!r}")

    def _candidate_features(
        self, n_features: int, rng: np.random.Generator
    ) -> np.ndarray:
        mtry = self._n_candidate_features(n_features)
        if mtry < n_features:
            return rng.choice(n_features, size=mtry, replace=False)
        return np.arange(n_features)

    # -- histogram split search ------------------------------------------
    def _best_split_hist(
        self,
        codes: np.ndarray,
        rows: np.ndarray,
        y_node: np.ndarray,
        hist: np.ndarray | None,
        n: int,
        rng: np.random.Generator,
        binner: Binner,
    ) -> tuple[int, float, np.ndarray] | None:
        """Best (feature, threshold, left-mask) from node histograms.

        Mirrors the exact oracle splitter (``tests/tree_oracle.py``) —
        same candidate-feature draw, same boundary ordering (ascending
        thresholds), same first-strict-minimum tie-break across features
        (the flattened argmin returns the first occurrence in
        feature-major order) — so on pre-binned data both choose
        identical splits.

        ``hist`` is the parent-maintained full-feature histogram when
        sibling subtraction is on; otherwise the node scans only its
        candidate columns here.
        """
        if self._hist_B < 2:
            return None
        features = self._candidate_features(self.n_features_, rng)
        if hist is not None:
            # Subtraction mode implies every feature is a candidate
            # (features == arange(F)), so the parent histogram IS the
            # candidate stack — no gather needed.
            hist_cand = hist
        else:
            hist_cand = self._hist_accumulate(rows, features)
        best = self._hist_best(hist_cand, n, self.min_samples_leaf)
        if best is None:
            return None
        j, b = best
        f = int(features[j])
        threshold = float(binner.upper_bounds_[f][b])
        # Transposed codes: a contiguous per-feature row beats a
        # strided column gather on the (n, F) matrix.
        left_mask = self._hist_codes_T[f].take(rows) <= b
        return f, threshold, left_mask

    def _build_hist(
        self,
        codes: np.ndarray,
        y: np.ndarray,
        rows: np.ndarray,
        hist: np.ndarray | None,
        depth: int,
        rng: np.random.Generator,
        importances: np.ndarray,
        n_total: int,
        binner: Binner,
    ) -> int:
        n = rows.shape[0]
        y_node = y[rows]
        impurity = self._node_impurity(y_node)
        is_leaf = (
            n < self.min_samples_split
            or impurity <= 1e-12
            or (self.max_depth is not None and depth >= self.max_depth)
        )
        split = (
            None
            if is_leaf
            else self._best_split_hist(codes, rows, y_node, hist, n, rng, binner)
        )
        if split is None:
            return self._append_node(-1, 0.0, self._leaf_value(y_node))

        f, threshold, left_mask = split
        left_rows = rows[left_mask]
        right_rows = rows[~left_mask]
        n_left = left_rows.shape[0]
        n_right = n - n_left
        left_imp = self._node_impurity(y[left_rows])
        right_imp = self._node_impurity(y[right_rows])
        decrease = impurity - (n_left * left_imp + n_right * right_imp) / n
        importances[f] += decrease * n / n_total

        node_index = self._append_node(f, threshold, self._leaf_value(y_node))
        hist_left = hist_right = None
        if self._hist_subtract and hist is not None:
            # Sibling subtraction: scan only the smaller child; the
            # larger sibling's histogram is the parent's minus the
            # scanned one.  Children that cannot split (too small or at
            # max depth) skip histogram work entirely.
            depth_ok = self.max_depth is None or depth + 1 < self.max_depth
            left_needed = depth_ok and n_left >= self.min_samples_split
            right_needed = depth_ok and n_right >= self.min_samples_split
            if left_needed or right_needed:
                if n_left <= n_right:
                    hist_left = self._hist_accumulate(left_rows)
                    if right_needed:
                        hist_right = hist - hist_left
                else:
                    hist_right = self._hist_accumulate(right_rows)
                    if left_needed:
                        hist_left = hist - hist_right
        left = self._build_hist(
            codes, y, left_rows, hist_left, depth + 1, rng, importances,
            n_total, binner,
        )
        right = self._build_hist(
            codes, y, right_rows, hist_right, depth + 1, rng, importances,
            n_total, binner,
        )
        self._build_left[node_index] = left
        self._build_right[node_index] = right
        return node_index

    # -- fitting -----------------------------------------------------------
    def _fit_tree(self, X: np.ndarray, y: np.ndarray) -> None:
        X = as_2d_float(X)
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y length mismatch")
        binner = Binner()
        self._grow_hist(binner.fit_transform(X), y, binner)

    def _grow_hist(self, codes: np.ndarray, y: np.ndarray, binner: Binner) -> None:
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        if codes.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        if y.shape[0] != codes.shape[0]:
            raise ValueError("X and y length mismatch")
        self.n_features_ = codes.shape[1]
        self._reset_nodes()
        importances = np.zeros(codes.shape[1])
        rng = np.random.default_rng(self.random_state)
        self._hist_B = int(binner.n_bins_.max())
        rows = np.arange(codes.shape[0])
        # Full-width histograms (which enable sibling subtraction) only
        # pay off when every feature is a split candidate; with feature
        # subsampling each node scans just its mtry candidate columns
        # inside _best_split_hist instead.
        self._hist_subtract = (
            self._n_candidate_features(codes.shape[1]) == codes.shape[1]
        )
        # Feature-major copy of the codes: left-mask evaluation (and the
        # regressor's per-feature accumulation) reads one contiguous row
        # per feature instead of a strided column of the (n, F) matrix.
        self._hist_codes_T = np.ascontiguousarray(codes.T)
        self._hist_prepare(codes, y)
        hist = self._hist_accumulate(rows) if self._hist_subtract else None
        self._build_hist(
            codes, y, rows, hist, 0, rng, importances, codes.shape[0], binner
        )
        self._hist_cleanup()
        self._hist_codes_T = None
        self._hist_B = None
        self._hist_subtract = False
        self._finalize_nodes()
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances

    # -- prediction --------------------------------------------------------
    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value for every row of ``X``: the one-tree case of
        :meth:`FlatEnsemble.leaf_values` (NaN routes right)."""
        if self.feature_ is None:
            raise RuntimeError("tree is not fitted")
        X = as_2d_float(X)
        check_n_features(self, X)
        return FlatEnsemble([self]).leaf_values(X)[0]

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the fitted tree."""
        return 0 if self.feature_ is None else int(self.feature_.shape[0])

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (root = 0)."""

        def walk(i: int) -> int:
            if self.feature_[i] < 0:
                return 0
            return 1 + max(walk(int(self.left_[i])), walk(int(self.right_[i])))

        if self.feature_ is None:
            raise RuntimeError("tree is not fitted")
        return walk(0)


class DecisionTreeClassifier(_BaseTree):
    """CART classifier minimizing Gini impurity."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree on integer class labels ``y``."""
        y = np.asarray(y)
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self._n_classes = self.classes_.shape[0]
        self._fit_tree(np.asarray(X), y_enc)
        return self

    def fit_binned(
        self, codes: np.ndarray, y: np.ndarray, binner: Binner
    ) -> "DecisionTreeClassifier":
        """Grow on pre-computed bin codes.

        Ensembles bin the corpus once and fit every tree on (bootstrap
        slices of) the shared codes, so quantization is paid once, not
        per tree.
        """
        y = np.asarray(y)
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self._n_classes = self.classes_.shape[0]
        self._grow_hist(np.asarray(codes), y_enc, binner)
        return self

    # -- criterion ---------------------------------------------------------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        if y.size == 0:  # defensive: splits never produce empty children
            return np.full(self._n_classes, 1.0 / self._n_classes)
        counts = np.bincount(y, minlength=self._n_classes).astype(np.float64)
        return counts / counts.sum()

    def _node_impurity(self, y: np.ndarray) -> float:
        if y.size == 0:
            return 0.0
        counts = np.bincount(y, minlength=self._n_classes)
        p = counts / y.size
        return float(1.0 - np.sum(p * p))

    def _hist_prepare(self, codes: np.ndarray, y: np.ndarray) -> None:
        B, C = self._hist_B, self._n_classes
        # Fused (feature, bin, class) index per cell, with the column
        # offset baked in: histogramming all features at a node (the
        # sibling-subtraction path) is one row gather and one bincount,
        # no per-node index arithmetic.  int32 halves the memory
        # traffic of the gathers.
        off = np.arange(codes.shape[1], dtype=np.int32) * (B * C)
        self._hist_base = (
            codes.astype(np.int32) * C + y[:, None].astype(np.int32) + off
        )
        self._hist_stride = B * C

    def _hist_cleanup(self) -> None:
        self._hist_base = None
        self._hist_stride = None

    def _hist_accumulate(
        self, rows: np.ndarray, features: np.ndarray | None = None
    ) -> np.ndarray:
        """Cumulative-over-bins class histogram, shape ``(m, B, C)``.

        Cumulative form means scoring needs no per-node cumsum, and
        sibling subtraction works unchanged: integer cumulation and
        subtraction commute exactly.
        """
        B, C = self._hist_B, self._n_classes
        if features is None:
            combined = self._hist_base[rows]
            m = combined.shape[1]
        else:
            # Candidate columns keep their original (feature-f) offset;
            # shift each down to its compacted position in the stack.
            m = features.shape[0]
            adj = (
                features.astype(np.int32) - np.arange(m, dtype=np.int32)
            ) * self._hist_stride
            combined = self._hist_base[np.ix_(rows, features)] - adj[None, :]
        h = np.bincount(
            combined.ravel(), minlength=m * B * C
        ).reshape(m, B, C)
        return np.cumsum(h, axis=1)

    def _hist_best(
        self, cum: np.ndarray, n: int, min_leaf: int
    ) -> tuple[int, int] | None:
        # cum: (m, B, C) cumulative class counts per candidate feature.
        # Valid boundaries need an occupied bin (the threshold is the
        # max value routed left) and both children >= min_leaf.
        ncum = np.add.reduce(cum, axis=2)
        nl_all = ncum[:, :-1]
        occ = np.empty(nl_all.shape, dtype=bool)
        occ[:, 0] = nl_all[:, 0] > 0
        occ[:, 1:] = nl_all[:, 1:] > nl_all[:, :-1]
        valid = occ & (nl_all >= min_leaf) & ((n - nl_all) >= min_leaf)
        nv = np.count_nonzero(valid)
        if nv == 0:
            return None
        # Counts are exact integers in float64, and the score
        # expressions are the exact oracle's — identical counts give
        # identical scores, which the golden-equivalence tests rely on.
        # Dense nodes score the whole contiguous grid; sparse (deep)
        # nodes gather just the few valid cells.
        if 2 * nv >= valid.size:
            left_counts = cum[:, :-1].astype(np.float64)
            right_counts = (cum[:, -1:] - cum[:, :-1]).astype(np.float64)
            n_left = nl_all.astype(np.float64)
            n_right = n - n_left
            with np.errstate(divide="ignore", invalid="ignore"):
                gini_left = 1.0 - np.sum(
                    (left_counts / n_left[:, :, None]) ** 2, axis=2
                )
                gini_right = 1.0 - np.sum(
                    (right_counts / n_right[:, :, None]) ** 2, axis=2
                )
                weighted = (n_left * gini_left + n_right * gini_right) / n
            flat = np.where(valid, weighted, np.inf).ravel()
            k = int(np.argmin(flat))
            j, b = divmod(k, valid.shape[1])
            return j, b
        jj, bb = np.nonzero(valid)
        left_counts = cum[jj, bb].astype(np.float64)
        right_counts = (cum[jj, -1] - cum[jj, bb]).astype(np.float64)
        n_left = left_counts.sum(axis=1)
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        k = int(np.argmin(weighted))
        return int(jj[k]), int(bb[k])

    # -- prediction ---------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates (leaf class frequencies)."""
        return self._leaf_values(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most-probable class per row."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor minimizing within-node variance (MSE)."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on continuous targets ``y``."""
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        self._fit_tree(np.asarray(X), y)
        return self

    def fit_binned(
        self, codes: np.ndarray, y: np.ndarray, binner: Binner
    ) -> "DecisionTreeRegressor":
        """Grow on pre-computed bin codes."""
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        self._grow_hist(np.asarray(codes), y, binner)
        return self

    # -- criterion ---------------------------------------------------------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([y.mean()]) if y.size else np.array([0.0])

    def _node_impurity(self, y: np.ndarray) -> float:
        if y.size == 0:
            return 0.0
        return float(np.var(y))

    def _hist_prepare(self, codes: np.ndarray, y: np.ndarray) -> None:
        self._hist_w = y
        self._hist_w2 = y * y

    def _hist_cleanup(self) -> None:
        self._hist_w = None
        self._hist_w2 = None

    def _hist_accumulate(
        self, rows: np.ndarray, features: np.ndarray | None = None
    ) -> np.ndarray:
        # One feature at a time over the transposed codes: the target
        # gather w[rows] is shared across features, so no row-repeated
        # weight temps (the fused-index form would expand the weights
        # m-fold), and each weighted bincount adds a bin's targets in
        # ascending row order — the same order as a fused accumulation,
        # so the float sums are bit-identical either way.
        B = self._hist_B
        codes_T = self._hist_codes_T
        feats = (
            np.arange(codes_T.shape[0]) if features is None else features
        )
        w = self._hist_w[rows]
        w2 = self._hist_w2[rows]
        out = np.empty((feats.shape[0], 3, B))
        for i, f in enumerate(feats):
            c = codes_T[f].take(rows).astype(np.intp)
            out[i, 0] = np.bincount(c, minlength=B)
            out[i, 1] = np.bincount(c, weights=w, minlength=B)
            out[i, 2] = np.bincount(c, weights=w2, minlength=B)
        return out

    def _hist_best(
        self, hist_cand: np.ndarray, n: int, min_leaf: int
    ) -> tuple[int, int] | None:
        # hist_cand: (m, 3, B) per-bin count / sum / sum-of-squares per
        # candidate feature.  Unlike the classifier's integer counts,
        # these are float sums, so cumulation happens here (raw bins
        # subtract bit-identically; cumulated ones would not).
        cnt = hist_cand[:, 0]
        cum_cnt = np.cumsum(cnt, axis=1)
        cum_s = np.cumsum(hist_cand[:, 1], axis=1)
        cum_s2 = np.cumsum(hist_cand[:, 2], axis=1)
        nl_all = cum_cnt[:, :-1]
        valid = (cnt[:, :-1] > 0) & (nl_all >= min_leaf) & ((n - nl_all) >= min_leaf)
        nv = np.count_nonzero(valid)
        if nv == 0:
            return None
        if 2 * nv >= valid.size:
            n_left = nl_all
            n_right = n - n_left
            sum_left = cum_s[:, :-1]
            sum_right = cum_s[:, -1:] - sum_left
            sum2_left = cum_s2[:, :-1]
            sum2_right = cum_s2[:, -1:] - sum2_left
            with np.errstate(divide="ignore", invalid="ignore"):
                var_left = np.maximum(
                    sum2_left / n_left - (sum_left / n_left) ** 2, 0.0
                )
                var_right = np.maximum(
                    sum2_right / n_right - (sum_right / n_right) ** 2, 0.0
                )
                weighted = (n_left * var_left + n_right * var_right) / n
            flat = np.where(valid, weighted, np.inf).ravel()
            k = int(np.argmin(flat))
            j, b = divmod(k, valid.shape[1])
            return j, b
        jj, bb = np.nonzero(valid)
        n_left = cum_cnt[jj, bb]
        n_right = n - n_left
        sum_left = cum_s[jj, bb]
        sum_right = cum_s[jj, -1] - sum_left
        sum2_left = cum_s2[jj, bb]
        sum2_right = cum_s2[jj, -1] - sum2_left
        var_left = np.maximum(
            sum2_left / n_left - (sum_left / n_left) ** 2, 0.0
        )
        var_right = np.maximum(
            sum2_right / n_right - (sum_right / n_right) ** 2, 0.0
        )
        weighted = (n_left * var_left + n_right * var_right) / n
        k = int(np.argmin(weighted))
        return int(jj[k]), int(bb[k])

    # -- prediction ---------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf target per row."""
        return self._leaf_values(X)[:, 0]
