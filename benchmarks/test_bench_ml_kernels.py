"""Benchmarks: ML kernel floors — hist training and flattened prediction.

Unlike the experiment benchmarks (which regenerate paper tables), these
enforce *kernel-level* speedup floors on `repro.ml`'s two hot paths:

- histogram training (corpus-level binning + histogram split finding,
  the library's only grower) must be ≥10x faster than the exact CART
  splitter it replaced — timed through the exact oracle in
  ``tests/tree_oracle.py`` — for both the forest and gradient boosting;
- flattened batched prediction (:class:`repro.ml.tree.FlatEnsemble`)
  must be ≥20x faster per row than the per-row Python walk the
  ensembles used to do — while gathering bit-identical leaf values.

The workload is the real table3 corpus bootstrap-resampled to
deployment scale (fixed shapes, like the stream benchmark — the
contract is "this speedup at this size", so the rows are not
``REPRO_SCALE``-scaled; only the underlying corpus is).  Each floor
gates the median over ``PAIRS`` alternating, host-speed-scaled run
pairs of the two sides (``conftest.alternating_pairs``), so a host
slow-down inside one run cannot flip it.  The benchmark timer (the
report's ``stats``) times one run of the library side alone, after the
pairs: a hist fit, or the forest's ``predict_proba``.  Floors sit well
under the measured speedups on a 2-vCPU container (lockstep grower,
three runs: forest fit ~16-18x, boosting fit ~15-16x, prediction
~48-56x) so they trip on algorithmic regressions, not machine noise.
Run from the repository root
(``python -m pytest benchmarks/test_bench_ml_kernels.py``) so the
``tests`` package that holds the oracle and ``perfbench``'s host speed
sampler are importable.
"""

import statistics

import numpy as np
import pytest

from repro.experiments.common import features_for
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from tests.tree_oracle import (
    ExactDecisionTreeClassifier,
    ExactDecisionTreeRegressor,
    exact_growth,
    leaf_values_reference,
)

from conftest import alternating_pairs, run_once

MIN_FOREST_FIT_SPEEDUP = 10.0
MIN_BOOST_FIT_SPEEDUP = 10.0
MIN_PREDICT_SPEEDUP = 20.0

#: Alternating run pairs per floor; each floor gates their median.
PAIRS = 3

FIT_ROWS = 40_000
BOOST_ROWS = 20_000
PREDICT_TRAIN_ROWS = 8_000
PREDICT_ROWS = 20_000
PREDICT_REF_ROWS = 400


@pytest.fixture(scope="module")
def kernel_workload(svc1_corpus):
    """Table3 corpus features bootstrap-resampled to deployment scale."""
    X_c = features_for(svc1_corpus)[0]
    y_c = svc1_corpus.labels("combined")
    rng = np.random.default_rng(7)
    idx = rng.integers(0, X_c.shape[0], size=FIT_ROWS)
    return X_c[idx], y_c[idx]


def _exact_and_hist(benchmark, make, X, y):
    """``make().fit(X, y)`` grown by the exact oracle against the hist
    grower, in alternating pairs: the per-pair times, both models.  The
    benchmark timer then times one more hist fit alone."""

    def exact():
        with exact_growth():
            return make().fit(X, y)

    def hist():
        return make().fit(X, y)

    pairs, models = alternating_pairs(exact, hist, PAIRS)
    run_once(benchmark, hist)
    return pairs, models


def _record(benchmark, pairs, rows):
    """Median times and speedup of ``(exact, hist)`` pairs, recorded."""
    t_exact = statistics.median(e for e, _ in pairs)
    t_hist = statistics.median(h for _, h in pairs)
    speedup = statistics.median(e / h for e, h in pairs)
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["pairs"] = PAIRS
    benchmark.extra_info["exact_s"] = round(t_exact, 3)
    benchmark.extra_info["hist_s"] = round(t_hist, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    return t_exact, t_hist, speedup


def test_bench_hist_forest_fit(benchmark, kernel_workload):
    X, y = kernel_workload
    kw = dict(
        n_estimators=3, max_depth=10, max_features=None, random_state=0, n_jobs=1
    )
    pairs, (exact, hist) = _exact_and_hist(
        benchmark, lambda: RandomForestClassifier(**kw), X, y
    )
    assert all(isinstance(t, ExactDecisionTreeClassifier) for t in exact.trees_)
    t_exact, t_hist, speedup = _record(benchmark, pairs, X.shape[0])

    # Same accuracy envelope on the training distribution.
    sample = X[:4000]
    agree = np.mean(exact.predict(sample) == hist.predict(sample))
    benchmark.extra_info["exact_hist_agreement"] = round(float(agree), 3)
    assert agree > 0.9

    assert speedup >= MIN_FOREST_FIT_SPEEDUP, (
        f"hist forest fit speedup regressed: {speedup:.1f}x "
        f"< floor {MIN_FOREST_FIT_SPEEDUP}x ({t_exact:.2f}s exact, "
        f"{t_hist:.2f}s hist; median of {PAIRS} pairs: {pairs})"
    )


def test_bench_hist_boosting_fit(benchmark, kernel_workload):
    X, y = kernel_workload
    Xb, yb = X[:BOOST_ROWS], y[:BOOST_ROWS]
    kw = dict(n_estimators=12, max_depth=4, random_state=0, n_jobs=1)
    pairs, (exact, _) = _exact_and_hist(
        benchmark, lambda: GradientBoostingClassifier(**kw), Xb, yb
    )
    # Every round's trees must really be exact-grown on raw rows, not
    # hist trees that re-bin each round.
    assert all(
        isinstance(t, ExactDecisionTreeRegressor)
        for round_trees in exact.trees_
        for t in round_trees
    )
    t_exact, t_hist, speedup = _record(benchmark, pairs, Xb.shape[0])
    assert speedup >= MIN_BOOST_FIT_SPEEDUP, (
        f"hist boosting fit speedup regressed: {speedup:.1f}x "
        f"< floor {MIN_BOOST_FIT_SPEEDUP}x ({t_exact:.2f}s exact, "
        f"{t_hist:.2f}s hist; median of {PAIRS} pairs: {pairs})"
    )


def test_bench_flat_predict(benchmark, kernel_workload):
    X, y = kernel_workload
    forest = RandomForestClassifier(n_estimators=60, random_state=0).fit(
        X[:PREDICT_TRAIN_ROWS], y[:PREDICT_TRAIN_ROWS]
    )
    Xq = X[-PREDICT_ROWS:]
    flat = forest._flat_ensemble()
    flat.leaf_values(Xq[:500])  # warm the traversal

    # Per-row Python walk: the old prediction path, kept as the golden
    # reference — timed on a slice, compared per row.
    Xr = Xq[:PREDICT_REF_ROWS]

    def reference():
        return np.stack(
            [
                forest._align(tree, leaf_values_reference(tree, Xr))
                for tree in forest.trees_
            ]
        )

    pairs, (leaf, ref) = alternating_pairs(
        lambda: flat.leaf_values(Xq), reference, PAIRS
    )
    run_once(benchmark, forest.predict_proba, Xq)

    # The flattened traversal must gather the exact same leaf values.
    assert np.array_equal(ref, leaf[:, : PREDICT_REF_ROWS])

    speedup = statistics.median(
        (r / PREDICT_REF_ROWS) / (f / PREDICT_ROWS) for f, r in pairs
    )
    t_flat = statistics.median(f for f, _ in pairs)
    t_ref = statistics.median(r for _, r in pairs)
    benchmark.extra_info["trees"] = len(forest.trees_)
    benchmark.extra_info["rows"] = PREDICT_ROWS
    benchmark.extra_info["pairs"] = PAIRS
    benchmark.extra_info["flat_ms"] = round(t_flat * 1e3, 1)
    benchmark.extra_info["ref_ms_per_row"] = round(t_ref / PREDICT_REF_ROWS * 1e3, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup >= MIN_PREDICT_SPEEDUP, (
        f"flattened prediction speedup regressed: {speedup:.1f}x "
        f"< floor {MIN_PREDICT_SPEEDUP}x (median of {PAIRS} pairs: {pairs})"
    )


def test_bench_hist_worker_count_identity(benchmark, kernel_workload):
    """Forest results are bit-identical for any worker count."""
    X, y = kernel_workload
    Xf, yf = X[:4000], y[:4000]
    Xq = X[-2000:]
    results = {}

    def fit_both():
        for n_jobs in (1, 4):
            f = RandomForestClassifier(
                n_estimators=8, random_state=0, n_jobs=n_jobs
            ).fit(Xf, yf)
            results[n_jobs] = (f.predict_proba(Xq), f.feature_importances_)
        return results

    benchmark.pedantic(fit_both, rounds=1, iterations=1)
    assert np.array_equal(results[1][0], results[4][0])
    assert np.array_equal(results[1][1], results[4][1])
