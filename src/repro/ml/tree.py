"""CART decision trees grown by histogram split finding, in lockstep.

Features are quantized once per fit into ``uint8`` bin codes
(:class:`repro.ml.binning.Binner`); each node accumulates per-bin
class/gradient histograms with ``np.bincount`` and scores every
boundary of every candidate feature from the cumulative histogram in a
single set of array ops.  When all features are candidates
(``max_features=None``, the boosting configuration) each child's
histogram is derived by scanning only the *smaller* sibling and
subtracting it from the parent's — the LightGBM recipe; with per-split
feature subsampling each node instead scans just its few candidate
columns, which is cheaper than maintaining full-width histograms for
subtraction.

There is one grower, and it grows a *batch* of trees in lockstep
(:meth:`_BaseTree.fit_binned_batch`; a lone ``fit`` is a batch of one).
Every tree keeps an explicit depth-first stack, its own generator and
its own node table.  One step pops the next node of every tree that has
work left and computes, as array ops over all of those nodes at once,
their candidate-feature histograms, split scores, row partitions and
child impurities.  A tree still visits its nodes in the recursive
order (left subtree first) and draws its candidate features from its
own generator once per split node, so every tree is bit-identical to
growing it alone; trees that share a caller's generator grow in
successive batches, in list order (:func:`_generator_runs`).  A step's
nodes are processed in groups of at most
``STEP_CELLS`` gathered cells; a node that big by itself takes the
per-node path (outer-product gather, mask partition, per-feature
regression histograms), so big nodes cost what they cost alone.

The candidate-feature draws are made in bulk, bit for bit
(:class:`_FeatureDraws`): numpy's ``Generator.choice(F, m,
replace=False)`` is a fixed function of the generator's 32-bit words
(:func:`_floyd_choice`), so a batch draws a chunk per tree with array
ops and each step gathers its candidates' rows.  Where bulk draws could
differ, a tree draws through ``Generator.choice``, the per-node draw
the exact oracle keeps.

The Gini split search scores *class-major* count arrays, ``(classes,
cells)``: left counts are one cumulative sum along the cell axis per
(node, candidate) run, and each Gini sum adds class rows.  numpy adds
the ``(cells, classes)`` rows of the exact expressions left to right up
to 7 classes and pairwise from 8, and the row sums follow it
(:func:`_class_sum`), so every score is the exact oracle's bit for bit;
so do the node statistics (``_GiniGrower._stats``).  The class-minor
search and statistics they replaced are the oracle in
``tests/split_oracle.py``.

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

import functools

import numpy as np

from repro import telemetry
from repro.ml.binning import Binner
from repro.ml.validation import as_2d_float, check_n_features

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor", "FlatEnsemble"]

#: Working-set bound of one lockstep step: a group of nodes gathers at
#: most this many (row, candidate feature) cells at once.  A node this
#: big by itself is grown alone, through the per-node path.
STEP_CELLS = 1 << 14
#: Histogram cells (nodes x candidates x bins x classes or moments) one
#: group scores at once.
HIST_CELLS = 1 << 18
#: Bytes of sibling-subtraction histograms a batch carries per tree in
#: flight; with every feature a candidate, trees grow in sub-batches of
#: ``CARRY_BYTES // histogram bytes``.
CARRY_BYTES = 1 << 21
#: Sample rows per candidate-feature draw in a tree's chunk of draws
#: (the paper forest's trees draw once per 9-12 rows).
ROWS_PER_DRAW = 8
#: Working-set bound of one bulk draw: draws x (F + 2m) cells.  A chunk
#: of draws stays within it, and trees draw their chunks in groups that
#: do.
DRAW_CELLS = 1 << 19
#: Largest population numpy's ``choice(F, size=m, replace=False)``
#: draws by Floyd's algorithm at every ``m``; the bulk draws reproduce
#: that algorithm only.
FLOYD_MAX = 10_000


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
        with telemetry.span("ml.predict", rows=n, trees=n_trees):
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

    # -- criterion hooks (the exact oracle splitter reuses these) --------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _node_impurity(self, y: np.ndarray) -> float:
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

    # -- fitting -----------------------------------------------------------
    def _fit_tree(self, X: np.ndarray, y: np.ndarray) -> None:
        X = as_2d_float(X)
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y length mismatch")
        binner = Binner()
        self.fit_binned_batch([self], binner.fit_transform(X), y, binner)

    @classmethod
    def fit_binned_batch(
        cls,
        trees: list,
        codes: np.ndarray,
        targets: np.ndarray,
        binner: Binner,
        samples: list | None = None,
    ) -> list:
        """Grow unfitted ``trees`` of this class in lockstep on shared
        bin codes.

        Ensembles bin the corpus once and fit every tree on (bootstrap
        slices of) the shared codes, so quantization is paid once, not
        per tree.  ``targets`` is one target per code row, shared by
        every tree, or (regression) one such row per tree; tree ``i``
        grows on the code rows ``samples[i]`` (all rows when ``samples``
        is None), in that order.  Each tree comes out exactly as if
        grown alone, and trees that share a generator object as if
        grown one after another, in list order.
        """
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        if codes.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        if np.shape(targets)[-1] != codes.shape[0]:
            raise ValueError("X and y length mismatch")
        rows = [
            np.arange(codes.shape[0]) if samples is None else np.asarray(samples[i])
            for i in range(len(trees))
        ]
        with telemetry.span("ml.grow", trees=len(trees)) as sp:
            grower = cls._grow_batch(trees, codes, targets, binner, rows)
            sp.set(nodes=grower.nodes, steps=grower.steps)
        telemetry.count("ml.grow.trees", len(trees))
        telemetry.count("ml.grow.nodes", grower.nodes)
        telemetry.count("ml.grow.steps", grower.steps)
        telemetry.count("ml.grow.draws", grower.draws)
        telemetry.count("ml.grow.draw_fallbacks", grower.draw_fallbacks)
        return trees

    @classmethod
    def _grow_batch(cls, trees, codes, targets, binner, rows) -> _Grower:
        raise NotImplementedError

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
        self._fit_tree(np.asarray(X), y)
        return self

    @classmethod
    def _grow_batch(cls, trees, codes, targets, binner, rows) -> _Grower:
        y = np.asarray(targets)
        if y.ndim != 1:
            raise ValueError("classification trees of a batch share one label row")
        # Each tree keeps the classes its own rows hold (a bootstrap may
        # miss one); trees of one run with one class set share a label
        # encoding and grow in one lockstep batch.
        for i, tree in enumerate(trees):
            tree.classes_ = np.unique(y[rows[i]])
            tree._n_classes = tree.classes_.shape[0]
        grower = _GiniGrower(trees[0], codes, binner)
        for run in _generator_runs(trees):
            batches: dict[bytes, list[int]] = {}
            for i in run:
                batches.setdefault(trees[i].classes_.tobytes(), []).append(i)
            for members in batches.values():
                classes = trees[members[0]].classes_
                grower.n_classes = classes.shape[0]
                grower.labels = np.searchsorted(classes, y).astype(np.int32)
                grower.grow(trees, rows, members)
        return grower

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

    @classmethod
    def _grow_batch(cls, trees, codes, targets, binner, rows) -> _Grower:
        targets = np.asarray(targets, dtype=np.float64)
        grower = _VarianceGrower(trees[0], codes, binner)
        grower.targets = [
            (targets if targets.ndim == 1 else targets[i])[rows[i]]
            for i in range(len(trees))
        ]
        for run in _generator_runs(trees):
            grower.grow(trees, rows, run)
        return grower

    # -- criterion ---------------------------------------------------------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([y.mean()]) if y.size else np.array([0.0])

    def _node_impurity(self, y: np.ndarray) -> float:
        if y.size == 0:
            return 0.0
        return float(np.var(y))

    # -- prediction ---------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf target per row."""
        return self._leaf_values(X)[:, 0]


class _Node:
    """One pending node on a tree's depth-first stack."""

    __slots__ = ("rows", "depth", "parent", "side", "value", "impurity", "hist")

    def __init__(self, rows, depth, parent, side, value, impurity, hist=None):
        self.rows = rows  # batch positions, ascending
        self.depth = depth
        self.parent = parent  # node-table index of the parent, -1 at the root
        self.side = side  # 0 = left child, 1 = right child
        self.value = value
        self.impurity = impurity
        self.hist = hist  # carried full-width histogram (sibling subtraction)


def _generator_runs(trees) -> list[list[int]]:
    """The trees' indices cut into successive runs in which no two trees
    share a generator.

    A tree whose ``random_state`` is a ``Generator`` or ``BitGenerator``
    draws from that caller-owned stream.  Trees grown in one lockstep
    batch draw in step order, interleaved, so a tree whose stream a
    tree before it in the run already draws from starts the next run:
    the runs grow one after another, and each stream is drawn tree by
    tree in list order, as if every tree were grown alone."""
    runs: list[list[int]] = [[]]
    streams: set[int] = set()
    for i, tree in enumerate(trees):
        stream = tree.random_state
        if isinstance(stream, np.random.Generator):
            stream = stream.bit_generator
        if isinstance(stream, np.random.BitGenerator):
            if id(stream) in streams:
                runs.append([])
                streams.clear()
            streams.add(id(stream))
        runs[-1].append(i)
    return runs


def _groups(cells: list[int], hist_cells: int) -> list[list[int]]:
    """Split node indices into groups of at most ``STEP_CELLS`` gathered
    cells and ``HIST_CELLS`` histogram cells; a node that reaches
    ``STEP_CELLS`` by itself is a group alone."""
    groups: list[list[int]] = []
    group: list[int] = []
    total = 0
    for k, c in enumerate(cells):
        if c >= STEP_CELLS:
            groups.append([k])
            continue
        if group and (
            total + c > STEP_CELLS or (len(group) + 1) * hist_cells > HIST_CELLS
        ):
            groups.append(group)
            group, total = [], 0
        group.append(k)
        total += c
    if group:
        groups.append(group)
    return groups


def _first_min(nodes: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Position of the first least ``score`` of each run of equal
    ``nodes`` (ascending node ids; one run per node)."""
    if nodes[0] == nodes[-1]:
        return np.array([np.argmin(score)])
    new = np.empty(nodes.shape[0], dtype=bool)
    new[0] = True
    np.not_equal(nodes[1:], nodes[:-1], out=new[1:])
    seg = np.cumsum(new) - 1
    low = np.minimum.reduceat(score, np.flatnonzero(new))
    hit = np.flatnonzero(score == low[seg])
    return hit[np.concatenate(([True], seg[hit][1:] != seg[hit][:-1]))]


def _first_best(valid: np.ndarray, dense, cells) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the ``(candidate, boundary)`` of least score, or -1.

    ``valid`` is the ``(nodes, candidates, boundaries)`` grid of valid
    boundaries.  Dense grids score every cell (``dense()``); sparse ones
    only the valid cells (``cells(kk, jj, bb)``).  Either way the pick
    is the first minimum in feature-major, ascending-bin order — the
    exact oracle's tie-break."""
    n_nodes, _, width = valid.shape
    j = np.full(n_nodes, -1)
    b = np.full(n_nodes, -1)
    nv = np.count_nonzero(valid)
    if nv == 0:
        return j, b
    if 2 * nv >= valid.size:
        flat = np.where(valid, dense(), np.inf).reshape(n_nodes, -1)
        k = np.argmin(flat, axis=1)
        has = valid.reshape(n_nodes, -1).any(axis=1) if n_nodes > 1 else [True]
        j[has], b[has] = np.divmod(k[has], width)
        return j, b
    kk, jj, bb = np.nonzero(valid)
    first = _first_min(kk, cells(kk, jj, bb))
    j[kk[first]] = jj[first]
    b[kk[first]] = bb[first]
    return j, b


def _floyd_choice(raw: np.ndarray, F: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``choice(F, size=m, replace=False)``, many draws at once.

    ``raw`` holds one row of PCG64 outputs (``random_raw``) per tree,
    ``count * (2m - 1) / 2`` of them for ``count`` draws.  Returns the
    ``(trees, count, m)`` draws and, per tree, whether numpy would have
    rejected one of its words: a rejection shifts every later word, so
    that tree's draws are void.

    numpy (``F <= FLOYD_MAX``) reads 32-bit words, each output's low
    half and then its high half.  One draw takes ``2m - 1`` of them:
    Floyd's algorithm draws ``v`` in ``[0, j]`` for ``j = F - m ... F -
    1`` and keeps ``v``, or ``j`` when ``v`` is already a pick; then a
    shuffle draws ``u`` in ``[0, i]`` for ``i = m - 1 ... 1`` and swaps
    picks ``i`` and ``u``.  A draw in ``[0, r]`` is Lemire's ``(w * (r +
    1)) >> 32``, and numpy takes another word when the product's low
    half is below ``(2**32 - 1 - r) % (r + 1)``."""
    n = raw.shape[0]
    words = np.empty(raw.shape + (2,), dtype=np.uint64)
    np.bitwise_and(raw, 0xFFFFFFFF, out=words[..., 0])
    np.right_shift(raw, 32, out=words[..., 1])
    bound = np.concatenate((np.arange(F - m, F), np.arange(m - 1, 0, -1))).astype(np.uint64)
    # Word-major: word k of every draw is one contiguous row.
    product = words.reshape(-1, 2 * m - 1).T * (bound + 1)[:, None]
    low = product & 0xFFFFFFFF
    threshold = (0xFFFFFFFF - bound) % (bound + 1)
    rejected = (low < threshold[:, None]).reshape(2 * m - 1, n, -1).any(axis=(0, 2))
    value = (product >> 32).astype(np.intp)
    rows = value.shape[1]
    picks = np.empty((m, rows), dtype=np.int64)
    # Which features each draw has picked so far, one row of F per
    # draw: the duplicate test is one gather per pick, whatever m.
    seen = np.zeros(rows * F, dtype=bool)
    at = np.arange(0, rows * F, F)
    for c in range(m):
        v = value[c]
        pick = np.where(seen[at + v], F - m + c, v)
        seen[at + pick] = True
        picks[c] = pick
    flat = picks.reshape(-1)
    at = np.arange(rows)
    for c in range(m - 1):
        i, u = m - 1 - c, value[m + c] * rows + at
        held = picks[i].copy()
        picks[i] = flat[u]
        flat[u] = held
    return picks.T.reshape(n, -1, m), rejected


@functools.cache
def _bulk_draws_exact() -> bool:
    """Whether :func:`_floyd_choice` reproduces this numpy's
    ``Generator.choice``, draws and generator state alike: a one-time
    probe per process, so a numpy whose algorithm changed sends every
    tree to sequential draws instead of growing different trees."""
    for seed, F, m in ((0, 38, 6), (1, 2, 1), (2, 400, 199)):
        bulk, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
        picks, rejected = _floyd_choice(bulk.bit_generator.random_raw((1, 2 * m - 1)), F, m)
        want = [sequential.choice(F, size=m, replace=False) for _ in range(2)]
        a, b = bulk.bit_generator.state, sequential.bit_generator.state
        if (
            rejected[0]
            or not np.array_equal(picks[0], want)
            or (a["state"], a["has_uint32"]) != (b["state"], b["has_uint32"])
        ):
            return False
    return True


class _FeatureDraws:
    """Every tree's candidate-feature draws of one lockstep batch.

    Tree ``t``'s ``k``-th draw is the ``k``-th ``choice(F, size=m,
    replace=False)`` of its own generator, as if each split candidate
    drew for itself.  The draws are made in chunks: one ``random_raw``
    call per tree and :func:`_floyd_choice` over every tree's chunk at
    once, into a ``(trees, chunk, m)`` table that each step gathers its
    candidates' rows from.  A chunk holds an even number of draws, so it
    ends on a whole PCG64 output, where numpy's own calls would leave
    the generator.  It is sized from the rows (about one draw per
    ``ROWS_PER_DRAW``), within ``DRAW_CELLS``; a tree that has taken
    its whole chunk draws the next one into the same rows.  Trees draw
    their chunks in groups of at most ``DRAW_CELLS`` cells, so a wide
    ``F`` makes more calls, not smaller chunks: each call pays ``2m -
    1`` steps of array ops, whatever its size.

    A tree draws sequentially, through ``Generator.choice``, when bulk
    draws could differ: its generator is the caller's (it may not be a
    PCG64, and its state after the fit is theirs to see), ``F >
    FLOYD_MAX``, the probe failed, or one of its chunks held a rejected
    word (that chunk is drawn again from the state saved before it)."""

    def __init__(self, trees, n_features: int, mtry: int, rows: int):
        self.F, self.m = n_features, mtry
        cells = n_features + 2 * mtry
        self.chunk = 2 * max(1, min(-(-rows // (2 * ROWS_PER_DRAW)), DRAW_CELLS // (2 * cells)))
        self.group = max(1, DRAW_CELLS // (self.chunk * cells))
        self.rngs = [np.random.default_rng(tree.random_state) for tree in trees]
        bulk = n_features <= FLOYD_MAX and _bulk_draws_exact()
        # ``default_rng`` of anything but a generator is a fresh PCG64.
        self.sequential = [
            not bulk
            or isinstance(tree.random_state, (np.random.Generator, np.random.BitGenerator))
            for tree in trees
        ]
        self.fallbacks = sum(self.sequential)
        # The narrowest type that holds a feature index.
        self.table = np.empty((len(trees), self.chunk, mtry), np.min_scalar_type(n_features - 1))
        self.filled = np.zeros(len(trees), dtype=np.intp)
        self.cursor = np.zeros(len(trees), dtype=np.intp)

    @property
    def draws(self) -> int:
        return int(self.cursor.sum())

    def take(self, t_idx: np.ndarray) -> np.ndarray:
        """The next draw of each of the (distinct) trees ``t_idx``."""
        cursor = self.cursor[t_idx]
        short = t_idx[cursor == self.filled[t_idx]]
        if short.size:
            self._fill(short.tolist())
        self.cursor[t_idx] = cursor + 1
        return self.table[t_idx, cursor % self.chunk].astype(np.int64)

    def _fill(self, trees: list[int]) -> None:
        """Draw the next chunk of each of ``trees``, which have taken
        every draw made so far (the next draw, for a tree that draws
        sequentially)."""
        F, m, count = self.F, self.m, self.chunk
        bulk = [t for t in trees if not self.sequential[t]]
        for lo in range(0, len(bulk), self.group):
            group = bulk[lo:lo + self.group]
            gens = [self.rngs[t].bit_generator for t in group]
            saved = [gen.state for gen in gens]
            raw = np.stack([gen.random_raw(count * (2 * m - 1) // 2) for gen in gens])
            picks, rejected = _floyd_choice(raw, F, m)
            for t, gen, state, chunk, void in zip(group, gens, saved, picks, rejected):
                if void:
                    gen.state = state
                    self.sequential[t] = True
                    self.fallbacks += 1
                    continue
                self.table[t] = chunk
                self.filled[t] += count
        for t in trees:
            if self.sequential[t]:
                draw = self.rngs[t].choice(F, size=m, replace=False)
                self.table[t, self.filled[t] % count] = draw
                self.filled[t] += 1


class _Grower:
    """Grows a batch of trees of one criterion in lockstep.

    Every tree keeps its own depth-first stack, generator and node
    table; one step pops the next node of every tree with work left and
    runs counts, histograms, split scores, the row partition and child
    impurities as array ops over all of those nodes.  Rows are *batch
    positions*: tree ``t``'s bootstrap occupies one contiguous range of
    the batch, in the order the tree sees its rows, and ``brow`` maps a
    position to its row of the shared codes.
    """

    def __init__(self, proto, codes, binner):
        self.proto = proto
        self.codes = codes
        self.n_features = codes.shape[1]
        self.n_bins = int(binner.n_bins_.max())
        self.upper = binner.upper_bounds_
        self.codes_T = np.ascontiguousarray(codes.T)
        self.mtry = proto._n_candidate_features(self.n_features)
        # Full-width histograms (which enable sibling subtraction) only
        # pay off when every feature is a split candidate; with feature
        # subsampling each node scans just its mtry candidate columns.
        self.subtract = self.mtry == self.n_features
        self.steps = 0
        self.nodes = 0
        self.draws = 0
        self.draw_fallbacks = 0

    # -- criterion hooks -------------------------------------------------
    def _begin(self, members) -> None:
        """Per-batch accumulation state for the trees ``members``."""
        raise NotImplementedError

    def _stats(self, rows_list) -> tuple[list, list]:
        """Leaf values and impurities of nodes with these rows."""
        raise NotImplementedError

    def _hist(self, rows_list, feats) -> np.ndarray:
        """Histograms of each node's rows over its candidate features
        (``feats``, one row per node; ``None`` = every feature)."""
        raise NotImplementedError

    def _best(self, hists, n) -> tuple[np.ndarray, np.ndarray]:
        """Best ``(candidate, boundary)`` per node from its histogram
        (a stacked array, or a list of per-node histograms)."""
        raise NotImplementedError

    def _best_rows(self, rows_list, feats, n) -> tuple[np.ndarray, np.ndarray]:
        """Best ``(candidate, boundary)`` per node from its rows."""
        return self._best(self._hist(rows_list, feats), n)

    def _hist_cells(self, m: int) -> int:
        """Cells of one node's histogram over ``m`` candidates."""
        raise NotImplementedError

    # -- batch -----------------------------------------------------------
    def grow(self, trees, rows, order) -> None:
        """Grow ``trees`` (tree ``i`` on codes rows ``rows[i]``), in
        sub-batches of ``order``'s consecutive trees."""
        # Carried subtraction histograms scale with the trees in flight,
        # so with every feature a candidate the batch is capped.
        cap = len(order)
        if self.subtract:
            cap = max(1, CARRY_BYTES // (8 * self._hist_cells(self.n_features)))
        for lo in range(0, len(order), cap):
            members = order[lo:lo + cap]
            self._lockstep([trees[i] for i in members], [rows[i] for i in members], members)

    def _lockstep(self, trees, rows, members) -> None:
        proto = self.proto
        sizes = [r.shape[0] for r in rows]
        self.brow = np.concatenate(rows).astype(np.intp)
        self._begin(members)
        n_trees, F = len(trees), self.n_features
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        roots = [np.arange(lo, lo + size) for lo, size in zip(starts, sizes)]
        values, impurities = self._node_stats(roots)
        hists = self._scan(roots) if self.subtract else [None] * n_trees
        stacks = [
            [_Node(r, 0, -1, 0, v, i, h)]
            for r, v, i, h in zip(roots, values, impurities, hists)
        ]
        draws = None if self.subtract else _FeatureDraws(trees, F, self.mtry, max(sizes))
        for tree in trees:
            tree.n_features_ = F
            tree._reset_nodes()
        importances = np.zeros((n_trees, F))
        n_total = np.asarray(sizes)
        max_depth = proto.max_depth
        min_split = proto.min_samples_split
        splittable = self.n_bins >= 2

        live = list(range(n_trees))
        while live:
            popped = [stacks[t].pop() for t in live]
            self.steps += 1
            self.nodes += len(popped)
            index = []
            cand = []
            for k, (t, node) in enumerate(zip(live, popped)):
                tree = trees[t]
                i = tree._append_node(-1, 0.0, node.value)
                if node.parent >= 0:
                    links = tree._build_right if node.side else tree._build_left
                    links[node.parent] = i
                index.append(i)
                if (
                    splittable
                    and node.rows.shape[0] >= min_split
                    and node.impurity > 1e-12
                    and (max_depth is None or node.depth < max_depth)
                ):
                    cand.append(k)
            if cand:
                self._split(
                    trees, live, popped, index, cand, draws, stacks, importances, n_total
                )
            live = [t for t in live if stacks[t]]
        if draws is not None:
            self.draws += draws.draws
            self.draw_fallbacks += draws.fallbacks

        for t, tree in enumerate(trees):
            tree._finalize_nodes()
            row = importances[t]
            total = row.sum()
            tree.feature_importances_ = row / total if total > 0 else row

    def _split(self, trees, live, popped, index, cand, draws, stacks, importances, n_total):
        """Score the step's candidate nodes, split those with a valid
        boundary, and push their children."""
        nodes = [popped[k] for k in cand]
        cand_t = np.array([live[k] for k in cand])
        # One draw per candidate node, its tree's next, so each tree
        # draws in its depth-first order: the unchanged stream.
        feats = None if draws is None else draws.take(cand_t)
        j, b = self._best_splits(nodes, feats)
        chosen = np.flatnonzero(j >= 0)
        if not chosen.size:
            return
        f = j[chosen] if feats is None else feats[chosen, j[chosen]]
        b = b[chosen]
        split = [nodes[c] for c in chosen]
        lefts, rights = self._partition([node.rows for node in split], f, b)
        values, impurities = self._node_stats(lefts + rights)
        s = len(split)
        n_left = np.array([r.shape[0] for r in lefts])
        n_right = np.array([r.shape[0] for r in rights])
        n = n_left + n_right
        imp = np.array([node.impurity for node in split])
        imp_left = np.asarray(impurities[:s])
        imp_right = np.asarray(impurities[s:])
        decrease = imp - (n_left * imp_left + n_right * imp_right) / n
        slots = [cand[c] for c in chosen]
        t_idx = cand_t[chosen]
        # One node per tree per step: no index repeats, so each tree's
        # importances still accumulate in its depth-first order.
        importances[t_idx, f] += decrease * n / n_total[t_idx]
        hist_left, hist_right = (
            self._child_hists(split, lefts, rights)
            if self.subtract
            else ([None] * s, [None] * s)
        )
        for c, (k, node) in enumerate(zip(slots, split)):
            t = live[k]
            tree = trees[t]
            fc = int(f[c])
            tree._build_feature[index[k]] = fc
            tree._build_threshold[index[k]] = float(self.upper[fc][b[c]])
            depth = node.depth + 1
            stack = stacks[t]
            stack.append(
                _Node(
                    rights[c], depth, index[k], 1,
                    values[s + c], impurities[s + c], hist_right[c],
                )
            )
            stack.append(
                _Node(lefts[c], depth, index[k], 0, values[c], impurities[c], hist_left[c])
            )

    def _best_splits(self, nodes, feats) -> tuple[np.ndarray, np.ndarray]:
        """Best ``(candidate, boundary)`` per node, -1 where none."""
        n = np.array([node.rows.shape[0] for node in nodes])
        m = self.n_features if feats is None else feats.shape[1]
        j = np.empty(len(nodes), dtype=np.int64)
        b = np.empty(len(nodes), dtype=np.int64)
        for group in _groups((n * m).tolist(), self._hist_cells(m)):
            if self.subtract:
                best = self._best([nodes[k].hist for k in group], n[group])
            else:
                best = self._best_rows([nodes[k].rows for k in group], feats[group], n[group])
            j[group], b[group] = best
        return j, b

    def _node_stats(self, rows_list) -> tuple[list, list]:
        """:meth:`_stats` of the given nodes, in groups of at most
        ``STEP_CELLS`` rows."""
        values, impurities = [None] * len(rows_list), [None] * len(rows_list)
        for group in _groups([r.shape[0] for r in rows_list], 0):
            for k, v, i in zip(group, *self._stats([rows_list[k] for k in group])):
                values[k], impurities[k] = v, i
        return values, impurities

    def _scan(self, rows_list) -> list[np.ndarray]:
        """Full-width histograms of the given nodes, one per node."""
        out = [None] * len(rows_list)
        cells = [r.shape[0] * self.n_features for r in rows_list]
        for group in _groups(cells, self._hist_cells(self.n_features)):
            hist = self._hist([rows_list[k] for k in group], None)
            for g, k in enumerate(group):
                out[k] = hist[g]
        return out

    def _child_hists(self, split, lefts, rights):
        """Sibling subtraction: scan the smaller child, derive the larger
        from the parent; children that cannot split get none."""
        proto = self.proto
        s = len(split)
        hist_left, hist_right = [None] * s, [None] * s
        scans, plan = [], []
        for c, node in enumerate(split):
            depth_ok = proto.max_depth is None or node.depth + 1 < proto.max_depth
            n_left, n_right = lefts[c].shape[0], rights[c].shape[0]
            left_needed = depth_ok and n_left >= proto.min_samples_split
            right_needed = depth_ok and n_right >= proto.min_samples_split
            if left_needed or right_needed:
                small_left = n_left <= n_right
                scans.append(lefts[c] if small_left else rights[c])
                plan.append((c, small_left, right_needed if small_left else left_needed))
        for (c, small_left, sibling), hist in zip(plan, self._scan(scans)):
            other = split[c].hist - hist if sibling else None
            if small_left:
                hist_left[c], hist_right[c] = hist, other
            else:
                hist_left[c], hist_right[c] = other, hist
        return hist_left, hist_right

    def _partition(self, rows_list, f, b) -> tuple[list, list]:
        """Each node's rows split at ``code[f] <= b``, order kept."""
        lefts, rights = [None] * len(rows_list), [None] * len(rows_list)
        sizes = [r.shape[0] for r in rows_list]
        # Grouped like the nodes' histograms: a node big enough to be
        # scored alone is partitioned alone too.
        for group in _groups([size * self.mtry for size in sizes], 0):
            if len(group) == 1:
                k = group[0]
                rows = rows_list[k]
                # Transposed codes: a contiguous per-feature row beats a
                # strided column gather on the (n, F) matrix.
                go = self.codes_T[f[k]].take(self.brow[rows]) <= b[k]
                lefts[k], rights[k] = rows[go], rows[~go]
                continue
            R = np.concatenate([rows_list[k] for k in group])
            slot = np.repeat(np.arange(len(group)), [sizes[k] for k in group])
            go = self.codes_T[f[group][slot], self.brow[R]] <= b[group][slot]
            left, right = R[go], R[~go]
            n_left = np.bincount(slot[go], minlength=len(group)).tolist()
            lo_left = lo_right = 0
            for k, nl in zip(group, n_left):
                nr = sizes[k] - nl
                lefts[k] = left[lo_left:lo_left + nl]
                rights[k] = right[lo_right:lo_right + nr]
                lo_left += nl
                lo_right += nr
        return lefts, rights


class _GiniGrower(_Grower):
    """Classification trees: per-bin class counts, scored class-major."""

    def _begin(self, members) -> None:
        labels = self.labels
        C = self.n_classes
        B, F = self.n_bins, self.n_features
        self.by = labels.astype(np.intp)[self.brow]
        self.stride = B * C
        # Each mode builds the one table it reads.
        if self.subtract:
            # Fused (feature, bin, class) cell index per code row, the
            # column offset baked in: a node's histogram over all
            # features is one row gather and one bincount (:meth:`_hist`).
            # The trees of a batch share their class encoding, so one
            # base serves them all.
            off = np.arange(F, dtype=np.int32) * self.stride
            self.base = self.codes.astype(np.int32) * C + labels[:, None] + off
        else:
            # Flat (feature, bin) key of every code cell, with no class
            # in it: a node's candidate keys are one take
            # (:meth:`_best_rows`).  Index-typed, as every use of a key
            # is an index: int32 keys cost a cast in each of them.
            self.keys = (self.codes.astype(np.intp) + np.arange(F) * B).ravel()

    def _hist_cells(self, m: int) -> int:
        return m * self.n_bins * self.n_classes

    def _stats(self, rows_list):
        C = self.n_classes
        sizes = np.array([r.shape[0] for r in rows_list])
        K = sizes.shape[0]
        slot = np.repeat(np.arange(K), sizes)
        y = self.by[np.concatenate(rows_list)]
        counts = np.bincount(y * K + slot, minlength=C * K).reshape(C, K)
        # The expressions of _node_impurity and _leaf_value, class-major,
        # each class sum in numpy's order (:func:`_class_sum`).
        p = counts / sizes
        impurity = 1.0 - _class_sum(p * p)
        weights = counts.astype(np.float64)
        values = (weights / _class_sum(weights)).T
        return list(np.ascontiguousarray(values)), impurity.tolist()

    def _hist(self, rows_list, feats):
        """Per-bin class counts over every feature, ``(nodes, F, B, C)``:
        the carried sibling-subtraction histograms (candidate subsets
        are scored straight from rows, by :meth:`_best_rows`).

        Raw integer counts: sibling subtraction on them is exact."""
        assert feats is None, "Gini histograms span every feature"
        K = len(rows_list)
        size = self.n_features * self.stride
        idx = self.base[self.brow[rows_list[0] if K == 1 else np.concatenate(rows_list)]]
        if K > 1:
            slot = np.repeat(np.arange(K), [r.shape[0] for r in rows_list])
            idx += (slot * size)[:, None]
        return np.bincount(idx.ravel(), minlength=K * size).reshape(
            K, self.n_features, self.n_bins, self.n_classes
        )

    def _best_rows(self, rows_list, feats, n):
        B, C, F = self.n_bins, self.n_classes, self.n_features
        K, m = len(rows_list), feats.shape[1]
        # One row concatenation, and each row's node (its slot).
        if K == 1:
            R, slot = rows_list[0], 0
        else:
            R = np.concatenate(rows_list)
            slot = np.repeat(np.arange(K), [r.shape[0] for r in rows_list])
        y = self.by[R]
        # The (node, candidate, bin) key of every (row, candidate) pair:
        # one take of the row's candidate cells from the key table, each
        # moved from its feature's place to its (node, candidate)'s.
        shift = (feats - np.arange(m)) * B - (np.arange(K) * (m * B))[:, None]
        key = self.keys.take(self.brow[R][:, None] * F + feats[slot])
        key -= shift[slot]
        grid = K * m * B
        if 2 * key.size >= grid * C:
            # Dense nodes: the class-major histogram of every cell.
            key += (y * grid)[:, None]
            h = np.bincount(key.ravel(), minlength=C * grid).reshape(C, grid)
            return self._dense(h, n, m)
        # Sparse nodes: count only the occupied (node, candidate, bin)
        # cells, through their rank among the occupied cells.  The top
        # bin stays in: it sends every row left, so ``_score`` drops it.
        occupied = np.zeros(grid, dtype=bool)
        occupied[key] = True
        cell = np.flatnonzero(occupied)
        k = cell.shape[0]
        rank = np.empty(grid, dtype=np.intp)
        rank[cell] = np.arange(k)
        at = rank.take(key)
        at += (y * k)[:, None]
        counts = np.bincount(at.ravel(), minlength=C * k).reshape(C, k)
        node_counts = np.bincount(y * K + slot, minlength=C * K).reshape(C, K)
        return self._score(cell, counts, node_counts, n, m)

    def _best(self, h, n):
        if not isinstance(h, np.ndarray):
            h = h[0][None] if len(h) == 1 else np.stack(h)
        K, m, B, C = h.shape
        return self._dense(h.reshape(-1, C).T, n, m)

    def _dense(self, h, n, m):
        """:meth:`_score` of a class-major ``(C, nodes * m * B)`` count
        array over every bin."""
        B = self.n_bins
        node_counts = h.reshape(h.shape[0], -1, m * B)[:, :, :B].sum(axis=2)
        occupied = h[0].copy()
        for row in h[1:]:
            occupied += row
        cell = np.flatnonzero(occupied)
        return self._score(cell, h[:, cell], node_counts, n, m)

    def _score(self, cell, counts, node_counts, n, m):
        """Best split per node over its occupied ``(node, candidate,
        bin)`` cells (ascending), given each cell's class counts,
        class-major: ``counts`` is ``(C, cells)`` (updated in place),
        ``node_counts`` ``(C, nodes)``.

        A valid boundary needs an occupied bin (the threshold is the max
        value routed left) and both children >= min_samples_leaf; a
        run's last occupied bin sends every row left, so it never is."""
        B = self.n_bins
        min_leaf = self.proto.min_samples_leaf
        j = np.full(n.shape[0], -1)
        b = np.full(n.shape[0], -1)
        if not cell.size:
            return j, b
        # Left counts: a cumulative sum over each (node, candidate) run of
        # occupied bins (exact integers, as a cumsum over all bins): each
        # run's first cell takes off the run before it.
        run = cell // B
        new = np.empty(cell.shape[0], dtype=bool)
        new[0] = True
        np.not_equal(run[1:], run[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        if starts.shape[0] > 1:
            counts[:, starts[1:]] -= np.add.reduceat(counts, starts, axis=1)[:, :-1]
        left = np.cumsum(counts, axis=1)
        n_left_int = left.sum(axis=0)
        node = run // m
        n_node = n.take(node)
        keep = np.flatnonzero(
            (n_left_int >= min_leaf) & (n_node - n_left_int >= min_leaf)
        )
        if not keep.size:
            return j, b
        if keep.size < cell.size:
            node, cell, n_node, n_left_int = (
                node.take(keep), cell.take(keep), n_node.take(keep), n_left_int.take(keep)
            )
            left = left.take(keep, axis=1)
        # Counts are exact integers in float64, and the score expressions
        # are the exact oracle's, element for element, with the class
        # sums in numpy's own order — identical counts give identical
        # scores.
        left_counts = left.astype(np.float64)
        right_counts = node_counts.astype(np.float64).take(node, axis=1)
        right_counts -= left_counts
        n_left = n_left_int.astype(np.float64)
        n_right = n_node - n_left
        left_counts /= n_left
        right_counts /= n_right
        gini_left = 1.0 - _class_sum(np.square(left_counts, out=left_counts))
        gini_right = 1.0 - _class_sum(np.square(right_counts, out=right_counts))
        score = (n_left * gini_left + n_right * gini_right) / n_node
        first = _first_min(node, score)
        j[node[first]] = cell[first] // B % m
        b[node[first]] = cell[first] % B
        return j, b


def _class_sum(q: np.ndarray) -> np.ndarray:
    """Per-column sums of a class-major ``(C, k)`` array, bit for bit
    ``np.sum(q.T, axis=1)`` on the C-contiguous ``(k, C)`` array.

    numpy adds a row of at most 7 elements left to right, so up to 7
    classes the sum is a chain of row adds; from 8 on it adds pairwise,
    so the sum is taken as numpy takes it."""
    if q.shape[0] > 7:
        return np.ascontiguousarray(q.T).sum(axis=1)
    total = q[0].copy()
    for row in q[1:]:
        total += row
    return total


class _VarianceGrower(_Grower):
    """Regression trees: per-bin count, sum and sum of squares."""

    def _begin(self, members) -> None:
        self.by = np.concatenate([self.targets[i] for i in members])
        self.by2 = self.by * self.by

    def _hist_cells(self, m: int) -> int:
        return m * 3 * self.n_bins

    def _stats(self, rows_list):
        # Float reductions over a node's rows (numpy's pairwise sums)
        # stay per node, in the node's row order: ``np.mean``'s and
        # ``np.var``'s own steps, sharing the sum.
        values, impurities = [], []
        for rows in rows_list:
            y = self.by[rows]
            mean = np.add.reduce(y) / y.shape[0]
            d = y - mean
            values.append(np.array([mean]))
            impurities.append(float(np.add.reduce(d * d) / y.shape[0]))
        return values, impurities

    def _hist(self, rows_list, feats):
        """Per-bin ``(count, sum, sum of squares)``, ``(nodes, m, 3, B)``.

        Raw float sums, not cumulated: raw bins subtract bit-identically,
        cumulated ones would not.  Every bin adds its targets in
        ascending row order, in both the per-feature and the fused
        accumulation, so the float sums are the same either way."""
        B = self.n_bins
        K = len(rows_list)
        R = rows_list[0] if K == 1 else np.concatenate(rows_list)
        code_rows = self.brow[R]
        fs = np.arange(self.n_features) if feats is None else None
        m = self.n_features if feats is None else feats.shape[1]
        w = self.by[R]
        w2 = self.by2[R]
        out = np.empty((K, m, 3, B))
        if K == 1 and R.shape[0] * m >= STEP_CELLS:
            # A big node: one feature at a time, so no row-repeated
            # weight temps (the fused index would expand them m-fold).
            for i, f in enumerate(fs if feats is None else feats[0]):
                c = self.codes_T[f].take(code_rows).astype(np.intp)
                out[0, i, 0] = np.bincount(c, minlength=B)
                out[0, i, 1] = np.bincount(c, weights=w, minlength=B)
                out[0, i, 2] = np.bincount(c, weights=w2, minlength=B)
            return out
        if feats is None:
            idx = self.codes_T.take(code_rows, axis=1).astype(np.intp)
        else:
            slot = np.repeat(np.arange(K), [r.shape[0] for r in rows_list])
            idx = self.codes_T[feats[slot].T, code_rows].astype(np.intp)
        idx += (np.arange(m) * B)[:, None]
        if K > 1:
            if feats is None:
                slot = np.repeat(np.arange(K), [r.shape[0] for r in rows_list])
            idx += slot * (m * B)
        flat = idx.ravel()
        size = K * m * B
        out[:, :, 0] = np.bincount(flat, minlength=size).reshape(K, m, B)
        for d, weights in ((1, w), (2, w2)):
            out[:, :, d] = np.bincount(
                flat, weights=np.broadcast_to(weights, idx.shape).ravel(), minlength=size
            ).reshape(K, m, B)
        return out

    def _best(self, hists, n):
        min_leaf = self.proto.min_samples_leaf
        K = len(hists)
        m, _, B = hists[0].shape
        # Cumulate each node's histogram straight into the stacked arrays
        # (no stacked copy of the raw histograms).
        cum_cnt = np.empty((K, m, B))
        cum_s = np.empty((K, m, B))
        cum_s2 = np.empty((K, m, B))
        occupied = np.empty((K, m, B - 1), dtype=bool)
        for k, hist in enumerate(hists):
            np.cumsum(hist[:, 0], axis=1, out=cum_cnt[k])
            np.cumsum(hist[:, 1], axis=1, out=cum_s[k])
            np.cumsum(hist[:, 2], axis=1, out=cum_s2[k])
            np.greater(hist[:, 0, :-1], 0, out=occupied[k])
        nl_all = cum_cnt[:, :, :-1]
        nn = n[:, None, None]
        valid = occupied & (nl_all >= min_leaf) & ((nn - nl_all) >= min_leaf)

        def dense():
            n_left = nl_all
            n_right = nn - n_left
            sum_left = cum_s[:, :, :-1]
            sum_right = cum_s[:, :, -1:] - sum_left
            sum2_left = cum_s2[:, :, :-1]
            sum2_right = cum_s2[:, :, -1:] - sum2_left
            with np.errstate(divide="ignore", invalid="ignore"):
                var_left = np.maximum(sum2_left / n_left - (sum_left / n_left) ** 2, 0.0)
                var_right = np.maximum(
                    sum2_right / n_right - (sum_right / n_right) ** 2, 0.0
                )
                return (n_left * var_left + n_right * var_right) / nn

        def cells(kk, jj, bb):
            n_left = cum_cnt[kk, jj, bb]
            n_right = n[kk] - n_left
            sum_left = cum_s[kk, jj, bb]
            sum_right = cum_s[kk, jj, -1] - sum_left
            sum2_left = cum_s2[kk, jj, bb]
            sum2_right = cum_s2[kk, jj, -1] - sum2_left
            var_left = np.maximum(sum2_left / n_left - (sum_left / n_left) ** 2, 0.0)
            var_right = np.maximum(sum2_right / n_right - (sum_right / n_right) ** 2, 0.0)
            return (n_left * var_left + n_right * var_right) / n[kk]

        return _first_best(valid, dense, cells)
