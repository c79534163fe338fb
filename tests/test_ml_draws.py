"""Bulk candidate-feature draws against numpy's ``Generator.choice``.

The lockstep grower draws each split candidate's features from its
tree's generator.  ``repro.ml.tree._FeatureDraws`` makes those draws in
chunks, with array ops over each tree's PCG64 words
(``repro.ml.tree._floyd_choice``), instead of one ``choice(F, size=m,
replace=False)`` call per candidate.  The draws, and the generator's
state after each chunk, must be numpy's own, bit for bit, and the rare
paths must grow the same trees: a chunk holding a rejected word, a
failed probe, a population past Floyd's branch, a caller's generator
and a tree that outruns its first chunk.

Run from the repository root (``python -m pytest``): the long-tree
checks grow the exact oracle, imported as ``tests.tree_oracle``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from tests.test_ml_golden import GOLDEN, PAPER_FOREST, continuous_data, forest_digest, query_rows
from tests.test_ml_hist import assert_same_tree, binned_data
from tests.tree_oracle import (
    ExactDecisionTreeClassifier,
    ExactDecisionTreeRegressor,
    exact_growth,
)


def _draws(seeds, F, m, rows):
    trees = [DecisionTreeClassifier(random_state=seed) for seed in seeds]
    return tree_module._FeatureDraws(trees, F, m, rows)


def _take(draws, counts):
    """Each tree's first ``counts[t]`` draws, taken in lockstep steps:
    every tree with draws left takes its next one, so the trees run out
    of their chunks at different steps."""
    got = [[] for _ in counts]
    while True:
        live = np.array([t for t, n in enumerate(counts) if len(got[t]) < n], dtype=np.intp)
        if not live.size:
            return [np.array(rows) for rows in got]
        for t, row in zip(live, draws.take(live)):
            got[t].append(row)


def _assert_numpy_draws(draws, seeds, got, F, m):
    """``got[t]`` are tree ``t``'s first draws from numpy, and its
    generator stands where numpy's calls for every draw made leave it
    (a ``None`` seed skips the tree)."""
    for t, seed in enumerate(seeds):
        if seed is None:
            continue
        numpy_rng = np.random.default_rng(seed)
        want = np.array([numpy_rng.choice(F, size=m, replace=False) for _ in got[t]])
        assert got[t].dtype == want.dtype and got[t].tobytes() == want.tobytes()
        for _ in range(int(draws.filled[t]) - len(got[t])):
            numpy_rng.choice(F, size=m, replace=False)
        a, b = draws.rngs[t].bit_generator.state, numpy_rng.bit_generator.state
        assert a["state"] == b["state"]
        assert a["has_uint32"] == b["has_uint32"]


@given(seed=st.integers(0, 2**63), data=st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_equals_successive_choice_calls(seed, data):
    """The kernel alone (the batch's draws go through it only while the
    probe passes): an even number of draws from one tree's words."""
    F = data.draw(st.integers(2, 400))
    m = data.draw(st.integers(1, F - 1))
    count = 2 * data.draw(st.integers(1, 40))
    bulk, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    raw = bulk.bit_generator.random_raw((1, count * (2 * m - 1) // 2))
    picks, rejected = tree_module._floyd_choice(raw, F, m)
    want = np.array([numpy_rng.choice(F, size=m, replace=False) for _ in range(count)])
    a, b = bulk.bit_generator.state, numpy_rng.bit_generator.state
    # A rejected word makes numpy read another: its state moves past ours.
    assert ((a["state"], a["has_uint32"]) == (b["state"], b["has_uint32"])) != rejected[0]
    if not rejected[0]:
        assert picks.shape == (1, count, m)
        assert picks[0].dtype == want.dtype and picks[0].tobytes() == want.tobytes()


@given(
    seeds=st.lists(st.integers(0, 2**63), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_bulk_draws_equal_successive_choice_calls(seeds, data):
    F = data.draw(st.integers(2, 400))
    m = data.draw(st.integers(1, F - 1))
    draws = _draws(seeds, F, m, rows=data.draw(st.integers(1, 200)))
    counts = [data.draw(st.integers(1, 3 * draws.chunk)) for _ in seeds]
    got = _take(draws, counts)
    _assert_numpy_draws(draws, seeds, got, F, m)
    assert draws.draws == sum(counts)


@pytest.mark.parametrize(
    "rows, n_trees, F, m",
    [(1, 1, 2, 1), (800, 30, 38, 6), (40_000, 30, 38, 6), (4_000, 30, 1_000, 31),
     (5_000, 60, 400, 199)],
)
def test_chunks_are_even_and_each_bulk_draw_bounded(monkeypatch, rows, n_trees, F, m):
    draws = _draws(range(n_trees), F, m, rows)
    chunk = draws.chunk
    assert chunk >= 2 and chunk % 2 == 0
    real, calls = tree_module._floyd_choice, []

    def kernel(raw, F, m):
        calls.append(raw.shape[0])
        return real(raw, F, m)

    monkeypatch.setattr(tree_module, "_floyd_choice", kernel)
    draws.take(np.arange(n_trees))
    assert sum(calls) == n_trees
    # One tree's chunk alone may pass the bound only at the minimum chunk.
    for trees in calls:
        assert trees * chunk * (F + 2 * m) <= tree_module.DRAW_CELLS or (trees, chunk) == (1, 2)


def test_probe_passes_on_this_numpy():
    assert tree_module._bulk_draws_exact()


#: PCG64's state multiplier: a step is ``state * MULT + inc`` (mod 2**128).
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _zero_word_state(seed):
    """A PCG64 state whose next output is 0: numpy steps the state, then
    outputs the XOR of its halves, rotated.  A zero word is rejected by
    Lemire's method at every bound ``r`` with ``2**32 % (r + 1) != 0``."""
    inc = np.random.default_rng(seed).bit_generator.state["state"]["inc"]
    stepped = (5 << 64) | 5
    state = (stepped - inc) * pow(PCG64_MULT, -1, 2**128) % 2**128
    return {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }


def test_a_rejected_word_sends_its_tree_to_numpy():
    """A chunk whose first word numpy rejects (F = 38, m = 6: Floyd's
    first bound is 32) is drawn again by ``choice``; the other tree keeps
    its bulk draws."""
    draws = _draws([3, 4], 38, 6, rows=64)
    crafted = _zero_word_state(3)
    draws.rngs[0].bit_generator.state = crafted
    got = _take(draws, [2 * draws.chunk + 1] * 2)
    assert draws.sequential == [True, False] and draws.fallbacks == 1
    numpy_rng = np.random.default_rng(3)
    numpy_rng.bit_generator.state = crafted
    want = np.array([numpy_rng.choice(38, size=6, replace=False) for _ in got[0]])
    assert got[0].tobytes() == want.tobytes()
    _assert_numpy_draws(draws, [None, 4], got, 38, 6)


@pytest.fixture
def void_odd_chunks(monkeypatch):
    """Make the kernel report a rejected word in every chunk whose first
    output is odd; yields the number of chunks voided so far."""
    real = tree_module._floyd_choice
    assert tree_module._bulk_draws_exact()  # probed on the real kernel
    voided = []

    def kernel(raw, F, m):
        picks, rejected = real(raw, F, m)
        void = rejected | (raw[:, 0] % 2 == 1)
        voided.append(int(void.sum()))
        return picks, void

    monkeypatch.setattr(tree_module, "_floyd_choice", kernel)
    return voided


def test_rejected_chunks_are_drawn_again(void_odd_chunks):
    seeds = list(range(12))
    draws = _draws(seeds, 38, 6, rows=64)
    got = _take(draws, [3 * draws.chunk + 1] * len(seeds))
    _assert_numpy_draws(draws, seeds, got, 38, 6)
    assert 0 < sum(void_odd_chunks) < len(seeds)
    assert draws.fallbacks == sum(void_odd_chunks)


def test_rejected_chunks_keep_the_paper_forest(void_odd_chunks):
    X, y = continuous_data()
    with telemetry.tracing() as tracer:
        forest = RandomForestClassifier(n_jobs=1, **PAPER_FOREST).fit(X, y)
    assert forest_digest(forest, query_rows()) == GOLDEN["paper_forest"]
    assert sum(void_odd_chunks) > 0
    assert tracer.counters["ml.grow.draw_fallbacks"] == sum(void_odd_chunks)


@pytest.mark.parametrize("why", ["probe mismatch", "population past Floyd's branch"])
def test_sequential_draws_keep_the_paper_forest(monkeypatch, why):
    if why == "probe mismatch":
        monkeypatch.setattr(tree_module, "_bulk_draws_exact", lambda: False)
    else:
        monkeypatch.setattr(tree_module, "FLOYD_MAX", 11)  # the data has 12 features
    X, y = continuous_data()
    with telemetry.tracing() as tracer:
        forest = RandomForestClassifier(n_jobs=1, **PAPER_FOREST).fit(X, y)
    assert forest_digest(forest, query_rows()) == GOLDEN["paper_forest"]
    assert tracer.counters["ml.grow.draw_fallbacks"] == PAPER_FOREST["n_estimators"]
    assert tracer.counters["ml.grow.draws"] > 0


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_a_callers_generator_draws_sequentially(bit_generator):
    """A generator passed as ``random_state`` is the caller's, whatever
    its bit generator: the tree matches the oracle's, which calls
    ``choice`` once per split candidate, and the generator ends where
    the oracle's does."""
    X, y = binned_data(seed=2, n=300)
    ours, oracle = (np.random.Generator(bit_generator(5)) for _ in range(2))
    with telemetry.tracing() as tracer:
        tree = DecisionTreeClassifier(max_features=2, random_state=ours).fit(X, y)
    want = ExactDecisionTreeClassifier(max_features=2, random_state=oracle).fit(X, y)
    assert_same_tree(tree, want)
    np.testing.assert_equal(ours.bit_generator.state, oracle.bit_generator.state)
    assert tracer.counters["ml.grow.draw_fallbacks"] == 1
    assert tracer.counters["ml.grow.draws"] > 0


def _noisy_binned_data():
    """Pre-binned data with random labels: trees split far more often
    than once per ``ROWS_PER_DRAW`` rows."""
    X, _ = binned_data(seed=4, n=400)
    return X, np.random.default_rng(4).integers(0, 3, size=X.shape[0])


def test_a_tree_past_its_first_chunk_matches_the_oracle():
    X, y = _noisy_binned_data()
    kw = dict(max_features=2, random_state=11)
    with telemetry.tracing() as tracer:
        tree = DecisionTreeClassifier(**kw).fit(X, y)
    chunk = tree_module._FeatureDraws([tree], X.shape[1], 2, X.shape[0]).chunk
    assert tracer.counters["ml.grow.draws"] > 2 * chunk
    assert_same_tree(tree, ExactDecisionTreeClassifier(**kw).fit(X, y))


def test_a_regressor_draws_as_the_oracle_does():
    """The variance grower takes the same draws: a regressor with
    candidate subsets, past its first chunk, predicts as the oracle's
    (regressors are held to the oracle's predictions; tied float scores
    may name another feature at a node)."""
    X, _ = _noisy_binned_data()
    target = np.random.default_rng(5).normal(size=X.shape[0])
    kw = dict(max_features=2, random_state=6)
    with telemetry.tracing() as tracer:
        tree = DecisionTreeRegressor(**kw).fit(X, target)
    chunk = tree_module._FeatureDraws([tree], X.shape[1], 2, X.shape[0]).chunk
    assert tracer.counters["ml.grow.draws"] > chunk
    want = ExactDecisionTreeRegressor(**kw).fit(X, target)
    np.testing.assert_array_equal(tree.predict(X), want.predict(X))


def test_a_forest_past_its_first_chunks_matches_the_oracle():
    X, y = _noisy_binned_data()
    kw = dict(n_estimators=8, max_features=2, random_state=3, n_jobs=1)
    with telemetry.tracing() as tracer:
        forest = RandomForestClassifier(**kw).fit(X, y)
    with exact_growth() as grown:
        oracle = RandomForestClassifier(**kw).fit(X, y)
    assert grown["ExactDecisionTreeClassifier"] == 8
    chunk = tree_module._FeatureDraws(forest.trees_, X.shape[1], 2, X.shape[0]).chunk
    assert tracer.counters["ml.grow.draws"] > 8 * 2 * chunk
    for a, b in zip(forest.trees_, oracle.trees_):
        assert_same_tree(a, b)
