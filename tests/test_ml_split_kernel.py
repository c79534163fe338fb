"""The class-major Gini split search against its class-minor oracle.

``repro.ml.tree._GiniGrower`` scores split candidates on class-major
count arrays; ``tests/split_oracle.py`` keeps the class-minor search it
replaced.  On every node group Hypothesis draws, the two must return
the same ``(candidate, boundary)`` per node and hand ``_first_min`` the
same nodes and scores, byte for byte, on all three paths:

* sparse — ``_best_rows`` on nodes with fewer rows than half their
  ``candidates x bins x classes`` histogram;
* dense — ``_best_rows`` on nodes with at least that many;
* sibling subtraction — ``_best`` on carried full-width histograms.

Groups hold 1 to 300 rows per node, 1, 3, 6 or every candidate
feature, features with fewer bins than the widest, ``min_samples_leaf``
1, 2 or 5 and 1 to 16 classes: past 7 classes numpy's row sum is
pairwise, and the kernel must follow it.  The class-major node
statistics (``_stats``: leaf values and impurities) must equal the
oracle's on the same groups.  Whole forests grown with the oracle's
split search must equal the production forests too.

Run from the repository root (``python -m pytest``): the oracle is
imported as ``tests.split_oracle``.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _GiniGrower
from tests.split_oracle import ClassMinorGiniGrower
from tests.test_ml_golden import continuous_data, forest_digest, query_rows

CLASSES = (1, 2, 3, 7, 8, 9, 16)
MIN_LEAF = (1, 2, 5)


def _grower(cls, codes, widths, labels, brow, n_classes, min_leaf, mtry):
    """A grower of ``cls`` set up as ``_lockstep`` sets one up for a
    batch whose positions map to code rows through ``brow``."""
    proto = DecisionTreeClassifier(min_samples_leaf=min_leaf, max_features=mtry)
    binner = SimpleNamespace(
        n_bins_=widths, upper_bounds_=[np.arange(w, dtype=float) for w in widths]
    )
    grower = cls(proto, codes, binner)
    grower.n_classes = n_classes
    grower.labels = labels
    grower.brow = brow
    grower._begin([0])
    return grower


@st.composite
def node_groups(draw, path):
    """Codes, labels and one group of nodes whose size puts
    ``_best_rows`` (or, for ``subtraction``, ``_best``) on ``path``."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    C = draw(st.sampled_from(CLASSES))
    # Candidate subsets need a second feature (with one, every feature
    # is a candidate: the subtraction path).
    F = draw(st.integers(1 if path == "subtraction" else 2, 9))
    width = draw(st.integers(1, 4) if path == "dense" else st.integers(4, 64))
    # Every feature up to the widest; at least one as wide.
    widths = rng.integers(1, width + 1, size=F)
    widths[rng.integers(F)] = width
    n_codes = draw(st.integers(1, 300))
    codes = (rng.random((n_codes, F)) * widths).astype(np.uint8)
    labels = rng.integers(0, C, size=n_codes).astype(np.int32)
    if path == "subtraction":
        m = F
    else:
        m = draw(st.sampled_from(sorted({1, min(3, F), min(6, F), F})))
    K = draw(st.integers(1, 5))
    half = width * C / 2  # per node: rows >= half is dense
    if path == "dense":
        low, high = int(np.ceil(half)), 300
    elif path == "sparse":
        low, high = 1, max(1, min(300, int(np.ceil(half)) - 1))
    else:
        low, high = 1, 300
    sizes = [draw(st.integers(low, max(low, high))) for _ in range(K)]
    # Batch positions: node k holds an ascending subset of its own
    # range; positions map to code rows with repeats, like bootstraps.
    brow = rng.integers(0, n_codes, size=sum(sizes) * 2)
    rows, lo = [], 0
    for size in sizes:
        rows.append(np.sort(rng.choice(2 * size, size=size, replace=False)) + lo)
        lo += 2 * size
    feats = np.array([rng.choice(F, size=m, replace=False) for _ in range(K)])
    return dict(
        codes=codes, widths=widths, labels=labels, brow=brow, C=C, m=m,
        rows=rows, feats=feats, n=np.array(sizes),
        min_leaf=draw(st.sampled_from(MIN_LEAF)),
    )


def _run(grower, call):
    """``call(grower)`` and the ``(nodes, scores)`` it handed to
    ``_first_min``."""
    seen = []
    first_min = tree_module._first_min

    def record(nodes, score):
        seen.append((nodes.copy(), score.copy()))
        return first_min(nodes, score)

    with mock.patch.object(tree_module, "_first_min", record):
        j, b = call(grower)
    return j, b, seen


def _oracle_fit(fit):
    """``fit()`` with the oracle's split search in the grower; the
    oracle must really have scored."""
    scored = []

    class Counting(ClassMinorGiniGrower):
        def _score(self, *args):
            scored.append(1)
            return super()._score(*args)

    with mock.patch.object(tree_module, "_GiniGrower", Counting):
        model = fit()
    assert scored
    return model


def _assert_same(case, call, mtry):
    args = (
        case["codes"], case["widths"], case["labels"], case["brow"],
        case["C"], case["min_leaf"], mtry,
    )
    got = _run(_grower(_GiniGrower, *args), call)
    want = _run(_grower(ClassMinorGiniGrower, *args), call)
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert len(got[2]) == len(want[2])
    for (nodes_a, score_a), (nodes_b, score_b) in zip(got[2], want[2]):
        assert nodes_a.tobytes() == nodes_b.tobytes()
        assert score_a.dtype == score_b.dtype and score_a.tobytes() == score_b.tobytes()


@pytest.mark.parametrize("path", ["sparse", "dense"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_best_rows_equals_the_class_minor_oracle(path, data):
    case = data.draw(node_groups(path))
    C, m = case["C"], case["m"]
    n_rows = int(case["n"].sum())
    grid = len(case["rows"]) * m * int(case["widths"].max())
    # The group really takes the path under test.
    assert (2 * n_rows * m >= grid * C) == (path == "dense")
    _assert_same(
        case, lambda g: g._best_rows(case["rows"], case["feats"], case["n"]), mtry=1
    )


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_subtraction_best_equals_the_class_minor_oracle(data):
    case = data.draw(node_groups("subtraction"))

    def best(grower):
        assert grower.subtract
        hists = grower._scan(case["rows"])
        return grower._best(hists, case["n"])

    _assert_same(case, best, mtry=None)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_node_stats_equal_the_class_minor_oracle(data):
    """Leaf values and impurities of a node group, class-major against
    the oracle's ``(nodes, classes)`` expressions, byte for byte."""
    case = data.draw(node_groups("subtraction"))
    args = (
        case["codes"], case["widths"], case["labels"], case["brow"],
        case["C"], case["min_leaf"], None,
    )
    got = _grower(_GiniGrower, *args)._stats(case["rows"])
    want = _grower(ClassMinorGiniGrower, *args)._stats(case["rows"])
    for a, b in zip(got, want):
        a, b = np.array(a), np.array(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_classes", [2, 3, 8, 10, 16])
@pytest.mark.parametrize("max_features", ["sqrt", None])
def test_forests_equal_the_class_minor_oracle(n_classes, max_features):
    """Forests grown with either split search are the same forest."""
    X, _ = continuous_data(seed=n_classes, n=240)
    y = np.random.default_rng(n_classes).integers(0, n_classes, size=X.shape[0])
    kw = dict(
        n_estimators=6, min_samples_leaf=2, max_features=max_features,
        random_state=n_classes, n_jobs=1,
    )
    got = forest_digest(RandomForestClassifier(**kw).fit(X, y), query_rows())
    oracle = _oracle_fit(lambda: RandomForestClassifier(**kw).fit(X, y))
    assert got == forest_digest(oracle, query_rows())

