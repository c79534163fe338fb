"""Golden equivalence tests: columnar fast path vs per-session reference.

The columnar data plane's core contract is ``np.array_equal`` — not
approximate closeness — between :func:`extract_tls_matrix` (segment
reductions over one :class:`TransactionTable`) and the per-session
reference :func:`extract_tls_features`, across services, interval
grids, and the flow pipeline; and, by consequence, unchanged fig5 /
table3 numbers whichever path produced the features.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, config
from repro.collection.dataset import Dataset
from repro.collection.harness import collect_corpus
from repro.collection.shards import save_sharded
from repro.experiments import fig5, table3
from repro.experiments.common import default_forest
from repro.features import tls_features
from repro.features.tls_features import (
    TEMPORAL_INTERVALS,
    extract_tls_features,
    extract_tls_matrix,
    extract_tls_table,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import cross_val_predict, cross_validate
from repro.netflow.exporter import ExporterConfig
from repro.netflow.features import extract_flow_matrix
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable, segment_sort
from tests.flow_oracle import reference_flow_matrix
from tests.scoring_oracle import loop_tls_table


def reference_matrix(dataset, intervals=TEMPORAL_INTERVALS):
    """The pre-columnar loop path: one reference vector per session."""
    return np.vstack(
        [extract_tls_features(s.tls_transactions, intervals) for s in dataset]
    )


@pytest.fixture(scope="module", params=["svc1", "svc2", "svc3"])
def corpus(request):
    seeds = {"svc1": 31, "svc2": 32, "svc3": 33}
    return collect_corpus(request.param, 12, seed=seeds[request.param])


class TestTlsGoldenEquivalence:
    def test_bit_identical_default_grid(self, corpus):
        X_fast, names = extract_tls_matrix(corpus)
        assert np.array_equal(X_fast, reference_matrix(corpus))
        assert X_fast.shape == (len(corpus), len(names))

    def test_bit_identical_nondefault_grid(self, corpus):
        intervals = (10, 45, 300, 900)
        X_fast, names = extract_tls_matrix(corpus, intervals)
        assert np.array_equal(X_fast, reference_matrix(corpus, intervals))
        assert len(names) == 4 + 18 + 2 * len(intervals)

    def test_table_input_equivalent(self, corpus):
        X_from_dataset, _ = extract_tls_matrix(corpus)
        X_from_table, _ = extract_tls_matrix(corpus.tls_table())
        assert np.array_equal(X_from_dataset, X_from_table)

    def test_single_transaction_sessions(self):
        """IAT is empty for 1-txn sessions; stats must be exact zeros."""
        sessions = [
            [TlsTransaction(start=1.0, end=5.0, uplink_bytes=10,
                            downlink_bytes=100, sni="a")],
            [TlsTransaction(start=0.0, end=2.0, uplink_bytes=7,
                            downlink_bytes=90, sni="b"),
             TlsTransaction(start=4.0, end=9.0, uplink_bytes=3,
                            downlink_bytes=50, sni="b")],
        ]
        table = TransactionTable.from_sessions(sessions)
        X_fast, _ = extract_tls_matrix(table)
        X_ref = np.vstack([extract_tls_features(s) for s in sessions])
        assert np.array_equal(X_fast, X_ref)

    def test_empty_session_rejected(self):
        table = TransactionTable.from_sessions(
            [[TlsTransaction(start=0.0, end=1.0, uplink_bytes=1,
                             downlink_bytes=1, sni="a")], []]
        )
        with pytest.raises(ValueError):
            extract_tls_matrix(table)


#: Row orders within a session: as drawn (mostly unordered), by start
#: (a stable sort, so equal starts keep their drawn order; collected and
#: streamed tables arrive so) and shuffled.
ORDERS = ("drawn", "sorted", "shuffled")


def _in_order(draw, rows, order):
    if order == "sorted":
        return sorted(rows, key=lambda t: t.start)
    if order == "shuffled":
        return draw(st.permutations(rows))
    return rows


@st.composite
def tls_sessions(draw, order="drawn"):
    """1-6 sessions of 1-40 transactions each, rows in ``order``.

    Starts sit on a coarse grid, so equal starts (zero inter-arrival
    times) are common; durations are zero, on the grid or arbitrary;
    uplink is often zero; byte counts repeat within a session, so
    medians fall between or on equal values.
    """
    grid = draw(st.sampled_from((0.25, 1.0, 2.5)))
    sessions = []
    for s in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 40))
        starts = draw(st.lists(st.integers(0, 80), min_size=n, max_size=n))
        durations = draw(
            st.lists(st.sampled_from((0.0, grid, 4 * grid, 37.3)), min_size=n, max_size=n)
        )
        uplinks = draw(st.lists(st.sampled_from((0, 0, 517, 1400)), min_size=n, max_size=n))
        downlinks = draw(
            st.lists(st.sampled_from((0, 1000, 1000, 73_411, 2_000_000)), min_size=n, max_size=n)
        )
        rows = [
            TlsTransaction(
                start=k * grid, end=k * grid + d, uplink_bytes=u,
                downlink_bytes=down, sni=f"host{s}.example",
            )
            for k, d, u, down in zip(starts, durations, uplinks, downlinks)
        ]
        sessions.append(_in_order(draw, rows, order))
    return sessions


#: Interval grids: the paper's, one interval (the temporal block is a
#: ``(4, n)`` stack), more intervals than the paper's eight, and two
#: others.
GRIDS = (
    TEMPORAL_INTERVALS,
    (5,),
    (1, 3, 60),
    (10, 45, 300, 900),
    (2, 5, 10, 20, 30, 45, 60, 90, 120, 240, 600, 1200),
)


@st.composite
def signed_zero_sessions(draw, order="drawn"):
    """Sessions whose starts, ends and byte counts mix ``-0.0`` and
    ``0.0``, rows in ``order``: a record accepts ``-0.0`` everywhere
    ``0.0`` is accepted, so a duration, a rate or an inter-arrival time
    can be ``-0.0``, and a session sorted by start can hold both zeros
    in either order."""
    sessions = []
    for _ in range(draw(st.integers(1, 5))):
        rows = []
        for _ in range(draw(st.integers(1, 12))):
            start = draw(st.sampled_from((-0.0, 0.0, 0.0, 1.0, 2.0)))
            end = draw(st.sampled_from((start, -0.0, start + 1.0, start + 30.0)))
            if end < start:
                end = start
            rows.append(
                TlsTransaction(
                    start=start, end=end,
                    uplink_bytes=draw(st.sampled_from((-0.0, 0.0, 0, 517))),
                    downlink_bytes=draw(st.sampled_from((-0.0, 0.0, 0, 1000))),
                    sni="a.example",
                )
            )
        sessions.append(_in_order(draw, rows, order))
    return sessions


def _extract_counting_start_sorts(table, intervals, sessions):
    """``extract_tls_table``, checking that it sorted the starts for
    IAT exactly when some session's starts fall somewhere."""
    with mock.patch.object(tls_features, "segment_sort", wraps=segment_sort) as sort:
        got = extract_tls_table(table, intervals)
    rising = all(a.start <= b.start for s in sessions for a, b in zip(s, s[1:]))
    assert sort.call_count == (0 if rising else 1)
    return got


class TestTlsKernelProperties:
    """For any transaction table, the columnar kernel equals stacking
    the per-session reference, and the loop kernel it replaced, byte
    for byte."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), order=st.sampled_from(ORDERS), intervals=st.sampled_from(GRIDS))
    def test_kernel_equals_stacked_reference(self, data, order, intervals):
        sessions = data.draw(tls_sessions(order))
        table = TransactionTable.from_sessions(sessions)
        got = _extract_counting_start_sorts(table, intervals, sessions)
        want = np.vstack([extract_tls_features(s, intervals) for s in sessions])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == loop_tls_table(table, intervals).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), order=st.sampled_from(ORDERS), intervals=st.sampled_from(GRIDS))
    def test_signed_zeros_read_as_the_loop_kernel_reads_them(self, data, order, intervals):
        sessions = data.draw(signed_zero_sessions(order))
        table = TransactionTable.from_sessions(sessions)
        got = _extract_counting_start_sorts(table, intervals, sessions)
        assert got.tobytes() == loop_tls_table(table, intervals).tobytes()


#: Two non-default exporters: finer periodic summaries, and eager
#: idle splits under very short active timeouts.
EXPORTERS = (
    ExporterConfig(active_timeout_s=20.0, idle_timeout_s=1.0),
    ExporterConfig(active_timeout_s=3.0, idle_timeout_s=0.5),
)
EXPORTER_IDS = ["active20-idle1", "active3-idle0.5"]


@pytest.fixture(
    scope="module",
    params=[("live1", "live", None), ("rtc1", "rtc", None), ("svc1", None, "hostile")],
    ids=["live1", "rtc1", "svc1-hostile"],
)
def other_corpus(request):
    """Live, RTC and impaired corpora (longer connections, other gaps)."""
    service, workload, scenario = request.param
    return api.collect_corpus(
        service, n_sessions=10, seed=34, workload=workload, scenario=scenario, jobs=1
    )


class TestFlowGoldenEquivalence:
    def test_bit_identical(self, corpus):
        X_fast, names = extract_flow_matrix(corpus)
        X_ref = reference_flow_matrix(corpus)
        assert X_fast.tobytes() == X_ref.tobytes()
        assert X_fast.shape == (len(corpus), len(names))

    @pytest.mark.parametrize("config", EXPORTERS, ids=EXPORTER_IDS)
    def test_bit_identical_nondefault_exporters(self, corpus, config):
        X_fast, _ = extract_flow_matrix(corpus, config)
        assert X_fast.tobytes() == reference_flow_matrix(corpus, config).tobytes()

    @pytest.mark.parametrize("config", (None,) + EXPORTERS, ids=["default"] + EXPORTER_IDS)
    def test_bit_identical_other_workloads_and_scenarios(self, other_corpus, config):
        X_fast, _ = extract_flow_matrix(other_corpus, config)
        X_ref = reference_flow_matrix(other_corpus, config)
        assert X_fast.tobytes() == X_ref.tobytes()

    @pytest.mark.parametrize("shard_size", [1, 3, 50])
    def test_sharded_equals_in_memory(self, corpus, shard_size, tmp_path):
        """Shard by shard, off the transfer members alone: no shard is
        decoded, and the matrix equals the in-memory one byte for byte."""
        save_sharded(corpus, tmp_path / "c.shards", shard_size)
        sharded = Dataset.load(tmp_path / "c.shards")
        X_sharded, _ = extract_flow_matrix(sharded)
        X_memory, _ = extract_flow_matrix(corpus)
        assert X_sharded.tobytes() == X_memory.tobytes()
        assert sharded.counters["materialized"] == 0

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_fan_out_equals_in_memory_at_any_worker_count(self, corpus, jobs, tmp_path):
        """One shard per pool task: the matrix equals the in-memory one
        byte for byte at every worker and shard count."""
        X_memory, _ = extract_flow_matrix(corpus)
        for shard_size in (1, 3, 50):
            sharded = save_sharded(corpus, tmp_path / f"c{shard_size}.shards", shard_size)
            with config.override(jobs=jobs):
                X_sharded, _ = extract_flow_matrix(sharded)
            assert X_sharded.tobytes() == X_memory.tobytes(), shard_size


class TestExperimentNumbersUnchanged:
    """fig5/table3 are invariant to which path produced the features."""

    @pytest.fixture(scope="class")
    def svc1(self):
        return collect_corpus("svc1", 60, seed=41)

    def test_fig5_predictions_match_reference_features(self, svc1):
        result = fig5.run_service(svc1, targets=("combined",), n_estimators=10)
        X_ref = reference_matrix(svc1)
        y = svc1.labels("combined")
        model = default_forest()
        model.n_estimators = 10
        y_pred = cross_val_predict(model, X_ref, y, n_splits=5)
        assert np.array_equal(result["combined"]["y_pred"], y_pred)

    def test_table3_ablation_matches_reference_features(self, svc1):
        X_fast, _ = extract_tls_matrix(svc1)
        X_ref = reference_matrix(svc1)
        y = svc1.labels("combined")
        cols = table3._columns_for(("session_level", "transaction_stats"))
        model = RandomForestClassifier(n_estimators=10, random_state=0)
        fast = cross_validate(model, X_fast[:, cols], y, n_splits=3)
        ref = cross_validate(model, X_ref[:, cols], y, n_splits=3)
        assert fast.accuracy == ref.accuracy
        assert np.array_equal(fast.confusion, ref.confusion)
