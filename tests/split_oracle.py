"""The class-minor Gini split search: oracle for the class-major kernel.

:class:`repro.ml.tree._GiniGrower` scores each lockstep step's split
candidates on class-major ``(classes, cells)`` count arrays: one class
row at a time, with row adds for the Gini sums.  This module keeps the
split search it replaced, as it was: histograms and occupied cells laid
out ``(cells, classes)``, a cumulative sum down the cell axis, and the
Gini sums as ``np.sum(..., axis=1)`` over each cell's class row.  On
the same node groups the two must pick the same ``(candidate,
boundary)`` for every node and hand the same scores to
``repro.ml.tree._first_min`` (``tests/test_ml_split_kernel.py``).  It
keeps the class-minor node statistics too (leaf values and impurities
from ``(nodes, classes)`` counts), which the class-major ``_stats``
must equal byte for byte.

:class:`ClassMinorSplits` is a mixin placed ahead of the production
grower, so an oracle grower differs from a production one only in how
it scores candidates: :class:`ClassMinorGiniGrower`.  It reads the
fused ``(feature, bin, class)`` cell table in every mode, so it builds
that table whether or not the production grower does (which builds it
only for sibling subtraction).
"""

from __future__ import annotations

import numpy as np

from repro.ml import tree
from repro.ml.tree import _GiniGrower

__all__ = ["ClassMinorGiniGrower", "ClassMinorSplits"]


class ClassMinorSplits:
    """Class-minor ``_stats``, ``_best_rows``, ``_best`` and ``_score``."""

    def _begin(self, members) -> None:
        super()._begin(members)
        # Fused (feature, bin, class) cell index per code row, the
        # column offset baked in.
        off = np.arange(self.n_features, dtype=np.int32) * self.stride
        self.base = self.codes.astype(np.int32) * self.n_classes + self.labels[:, None] + off

    def _stats(self, rows_list):
        C = self.n_classes
        sizes = np.array([r.shape[0] for r in rows_list])
        slot = np.repeat(np.arange(sizes.shape[0]), sizes)
        y = self.by[np.concatenate(rows_list)]
        counts = np.bincount(slot * C + y, minlength=sizes.shape[0] * C).reshape(-1, C)
        # The expressions of _node_impurity and _leaf_value, row-wise (a
        # last-axis sum adds each row as the 1-D sum does).
        p = counts / sizes[:, None]
        impurity = 1.0 - np.sum(p * p, axis=1)
        weights = counts.astype(np.float64)
        return list(weights / weights.sum(axis=1, keepdims=True)), impurity.tolist()

    def _cells(self, rows_list, feats) -> np.ndarray:
        """Fused ``(node, candidate, bin, class)`` histogram cell of
        every (row, candidate) pair of the nodes, shape ``(rows, m)``."""
        stride = self.stride
        K = len(rows_list)
        code_rows = self.brow[rows_list[0] if K == 1 else np.concatenate(rows_list)]
        if feats is None:
            idx = self.base[code_rows]
            if K > 1:
                slot = np.repeat(np.arange(K), [r.shape[0] for r in rows_list])
                idx += (slot * (self.n_features * stride))[:, None]
            return idx
        m = feats.shape[1]
        if K == 1:
            # Candidate columns keep their original (feature-f) offset;
            # shift each down to its place in the stack.
            shift = (feats[0] - np.arange(m, dtype=np.int32)) * stride
            return self.base[np.ix_(code_rows, feats[0])] - shift
        slot = np.repeat(np.arange(K), [r.shape[0] for r in rows_list])
        shift = (feats - np.arange(m)) * stride - (np.arange(K) * (m * stride))[:, None]
        return self.base[code_rows[:, None], feats[slot]] - shift[slot]

    def _best_rows(self, rows_list, feats, n):
        B, C = self.n_bins, self.n_classes
        K, m = len(rows_list), feats.shape[1]
        idx = self._cells(rows_list, feats)
        grid = K * m * B
        if 2 * idx.size >= grid * C:
            return self._best(
                np.bincount(idx.ravel(), minlength=grid * C).reshape(K, m, B, C), n
            )
        # Sparse nodes: count only the occupied (node, candidate, bin)
        # cells, through their rank among the occupied cells.
        key = idx // C
        cell = np.flatnonzero(np.bincount(key.ravel(), minlength=grid))
        rank = np.empty(grid, dtype=np.intp)
        rank[cell] = np.arange(cell.shape[0])
        y = self.by[np.concatenate(rows_list)]
        counts = np.bincount(
            (rank[key] * C + y[:, None]).ravel(), minlength=cell.shape[0] * C
        ).reshape(-1, C)
        slot = np.repeat(np.arange(K), [r.shape[0] for r in rows_list])
        node_counts = np.bincount(slot * C + y, minlength=K * C).reshape(K, C)
        inner = cell % B != B - 1  # the top bin is never a boundary
        return self._score(cell[inner], counts[inner], node_counts, n, m)

    def _best(self, h, n):
        if not isinstance(h, np.ndarray):
            h = h[0][None] if len(h) == 1 else np.stack(h)
        K, m, B, C = h.shape
        node_counts = h[:, 0].sum(axis=1)
        h = h.reshape(-1, C)
        occupied = h[:, 0].copy()
        for c in range(1, C):
            occupied += h[:, c]
        occupied.reshape(K, m, B)[:, :, -1] = 0  # the top bin is never a boundary
        cell = np.flatnonzero(occupied)
        return self._score(cell, h[cell], node_counts, n, m)

    def _score(self, cell, counts, node_counts, n, m):
        """Best split per node over its occupied ``(node, candidate,
        bin)`` cells (ascending), given each cell's class counts.

        A valid boundary needs an occupied bin (the threshold is the max
        value routed left) and both children >= min_samples_leaf."""
        B = self.n_bins
        min_leaf = self.proto.min_samples_leaf
        j = np.full(n.shape[0], -1)
        b = np.full(n.shape[0], -1)
        if not cell.size:
            return j, b
        # Left counts: a cumulative sum over each (node, candidate) run of
        # occupied bins (exact integers, as a cumsum over all bins).
        run = cell // B
        new = np.empty(cell.shape[0], dtype=bool)
        new[0] = True
        np.not_equal(run[1:], run[:-1], out=new[1:])
        cum = np.cumsum(counts, axis=0)
        starts = np.flatnonzero(new)
        before = np.zeros_like(cum[: starts.shape[0]])
        before[1:] = cum[starts[1:] - 1]
        left = cum - np.repeat(before, np.diff(starts, append=cell.shape[0]), axis=0)
        node = run // m
        n_left_int = left[:, 0].copy()
        for c in range(1, left.shape[1]):
            n_left_int += left[:, c]
        keep = np.flatnonzero(
            (n_left_int >= min_leaf) & (n[node] - n_left_int >= min_leaf)
        )
        if not keep.size:
            return j, b
        if keep.size < cell.size:
            node, cell, left, n_left_int = node[keep], cell[keep], left[keep], n_left_int[keep]
        # Counts are exact integers in float64, and the score expressions
        # are the exact oracle's — identical counts give identical scores
        # (the row sum of exact integer counts is the integer row sum).
        left_counts = left.astype(np.float64)
        right_counts = node_counts.astype(np.float64)[node] - left_counts
        n_left = n_left_int.astype(np.float64)
        n_right = n[node] - n_left
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        score = (n_left * gini_left + n_right * gini_right) / n[node]
        first = tree._first_min(node, score)
        j[node[first]] = cell[first] // B % m
        b[node[first]] = cell[first] % B
        return j, b


class ClassMinorGiniGrower(ClassMinorSplits, _GiniGrower):
    """The production Gini grower with the class-minor split search."""
