"""Tests for repro.sessions (boundary heuristic + workload)."""

import random

import numpy as np
import pytest

from repro.sessions.boundary import (
    BoundaryConfig,
    _canonical_order,
    decide_starts,
    detect_session_starts,
    evaluate_boundary_detection,
    split_sessions,
    transaction_sort_key,
)
from repro.sessions.workload import back_to_back_stream
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable
from tests.session_oracle import oracle_session_starts, oracle_split_sessions


def txn(start, sni, end=None):
    return TlsTransaction(
        start=start,
        end=end if end is not None else start + 1.0,
        uplink_bytes=100,
        downlink_bytes=1000,
        sni=sni,
    )


class TestBoundaryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundaryConfig(window_s=0.0)
        with pytest.raises(ValueError):
            BoundaryConfig(n_min=0)
        with pytest.raises(ValueError):
            BoundaryConfig(delta_min=1.5)

    def test_paper_defaults(self):
        config = BoundaryConfig()
        assert config.window_s == 3.0
        assert config.n_min == 2
        assert config.delta_min == 0.5


class TestDetectSessionStarts:
    def test_empty_stream(self):
        assert detect_session_starts([]).shape == (0,)

    def test_first_transaction_is_always_new(self):
        flags = detect_session_starts([txn(0.0, "a"), txn(100.0, "a")])
        assert flags[0]
        assert not flags[1]

    def test_burst_of_new_servers_starts_session(self):
        stream = [
            txn(0.0, "www"),
            txn(0.5, "api"),
            txn(1.0, "edge1"),
            txn(30.0, "edge1"),
            # New session: burst with fresh edges.
            txn(60.0, "www"),
            txn(60.5, "edge7"),
            txn(61.0, "edge8"),
        ]
        flags = detect_session_starts(stream)
        assert flags[0]
        assert flags[4]
        assert flags.sum() == 2

    def test_familiar_burst_does_not_split(self):
        stream = [
            txn(0.0, "www"),
            txn(0.5, "edge1"),
            txn(1.0, "edge2"),
            # Mid-session burst to the same servers.
            txn(40.0, "edge1"),
            txn(40.5, "edge2"),
            txn(41.0, "edge1"),
        ]
        flags = detect_session_starts(stream)
        assert flags.sum() == 1

    def test_sparse_new_server_does_not_split(self):
        """A single new edge without a burst is CDN failover, not a
        session boundary."""
        stream = [
            txn(0.0, "www"),
            txn(0.5, "edge1"),
            txn(30.0, "edge9"),
            txn(70.0, "edge9"),
        ]
        flags = detect_session_starts(stream)
        assert flags.sum() == 1

    def test_unsorted_input_handled(self):
        stream = [
            txn(60.0, "www"),
            txn(0.0, "www"),
            txn(60.5, "edge7"),
            txn(0.5, "edge1"),
            txn(61.0, "edge8"),
            txn(1.0, "edge2"),
        ]
        flags = detect_session_starts(stream)
        # Flags align with input order: index 1 is the stream start,
        # index 0 is the second session's first transaction.
        assert flags[1]
        assert flags[0]
        assert flags.sum() == 2

    def test_window_parameter_matters(self):
        stream = [
            txn(0.0, "www"),
            txn(0.5, "edge1"),
            # Slow burst: second session's transactions 5 s apart.
            txn(60.0, "www"),
            txn(65.0, "edge7"),
            txn(70.0, "edge8"),
        ]
        narrow = detect_session_starts(stream, BoundaryConfig(window_s=3.0))
        wide = detect_session_starts(stream, BoundaryConfig(window_s=15.0))
        assert narrow.sum() == 1  # burst too slow for W=3
        assert wide.sum() == 2


def _tied_stream():
    """Two sessions whose boundary burst shares one start timestamp —
    the case where an input-order tie-break made results depend on the
    caller's row ordering."""
    return [
        txn(0.0, "www"),
        txn(0.0, "edge1", end=2.5),
        txn(1.0, "edge2"),
        txn(60.0, "www", end=63.0),
        txn(60.0, "edge7", end=61.0),
        txn(60.0, "edge8", end=62.0),
    ]


class TestTieBreakDeterminism:
    """Regression: tied start times are broken by transaction content,
    never by input position."""

    def test_flags_are_permutation_invariant(self):
        stream = _tied_stream()

        def flagged(perm):
            flags = detect_session_starts(perm)
            return {
                transaction_sort_key(t) for t, f in zip(perm, flags) if f
            }

        reference = flagged(stream)
        assert len(reference) == 2  # both sessions detected
        rng = random.Random(7)
        for _ in range(20):
            perm = stream[:]
            rng.shuffle(perm)
            assert flagged(perm) == reference

    def test_split_is_permutation_invariant(self):
        stream = _tied_stream()
        reference = split_sessions(stream, min_transactions=1)
        assert len(reference) == 2
        rng = random.Random(11)
        for _ in range(10):
            perm = stream[:]
            rng.shuffle(perm)
            assert split_sessions(perm, min_transactions=1) == reference

    def test_duplicate_rows_stay_together(self):
        """Even fully identical rows are grouped deterministically."""
        stream = _tied_stream() + [txn(60.0, "edge7", end=61.0)]
        a = split_sessions(stream, min_transactions=1)
        b = split_sessions(list(reversed(stream)), min_transactions=1)
        assert a == b

    def test_table_without_sni_is_rejected(self):
        table = TransactionTable(
            start=np.array([0.0, 1.0]),
            end=np.array([1.0, 2.0]),
            uplink=np.array([10.0, 10.0]),
            downlink=np.array([100.0, 100.0]),
            offsets=np.array([0, 2]),
        )
        with pytest.raises(ValueError, match="SNI column"):
            detect_session_starts(table)


def random_table(rng: random.Random, n: int) -> TransactionTable:
    """A stream with many tied starts, repeated hosts and exact duplicate
    rows: starts on a 0.5 s grid, three byte counts, five hostnames."""
    rows = []
    t = 0.0
    for _ in range(n):
        t += rng.choice([0.0, 0.0, 0.5, 1.0, 1.5, 3.0, 6.0])
        rows.append(
            TlsTransaction(
                start=t,
                end=t + rng.choice([0.0, 1.0, 4.0]),
                uplink_bytes=rng.choice([100, 200]),
                downlink_bytes=rng.choice([1000, 5000]),
                sni=rng.choice(["www", "api", "edge1", "edge2", "edge3"]),
            )
        )
    rng.shuffle(rows)
    return TransactionTable.from_transactions(rows)


class TestDeciderOracle:
    """``detect_session_starts`` runs the one decider, ``decide_starts``;
    the per-row loop it replaced (``tests/session_oracle.py``) must agree
    on every table."""

    @pytest.mark.parametrize("window_s", [0.5, 1.0, 3.0, 7.0])
    @pytest.mark.parametrize("n_min", [1, 2, 3, 4])
    @pytest.mark.parametrize("delta_min", [0.0, 0.5, 1.0])
    def test_detect_equals_per_row_oracle(self, window_s, n_min, delta_min):
        config = BoundaryConfig(window_s=window_s, n_min=n_min, delta_min=delta_min)
        rng = random.Random(f"{window_s}/{n_min}/{delta_min}")
        n_flags = 0
        for _ in range(40):
            table = random_table(rng, rng.randint(1, 60))
            flags = detect_session_starts(table, config)
            assert np.array_equal(flags, oracle_session_starts(table, config))
            n_flags += int(flags.sum())
        assert n_flags > 40  # more starts than the first rows alone

    @pytest.mark.parametrize("min_transactions", [1, 2, 3, 5])
    def test_split_equals_per_row_oracle(self, min_transactions):
        rng = random.Random(min_transactions)
        for _ in range(40):
            config = BoundaryConfig(
                window_s=rng.choice([1.0, 3.0]),
                n_min=rng.randint(1, 3),
                delta_min=rng.choice([0.0, 0.5, 1.0]),
            )
            table = random_table(rng, rng.randint(1, 60))
            rows = table.transactions()
            assert split_sessions(rows, config, min_transactions) == (
                oracle_split_sessions(rows, config, min_transactions)
            )

    @pytest.mark.parametrize("n_min", [1, 2, 4])
    def test_deciding_a_log_in_pieces_equals_one_call(self, n_min):
        """The stream decides its log a few rows at a time, sharing one
        server set; any cut of the log must give the one-call flags."""
        config = BoundaryConfig(n_min=n_min)
        rng = random.Random(n_min)
        for _ in range(40):
            table = random_table(rng, rng.randint(1, 60))
            order = _canonical_order(table)
            starts = table.start[order].tolist()
            snis = [table.sni[i] for i in order]
            whole = decide_starts(starts, snis, 0, len(starts), set(), config)
            cuts = sorted(rng.choices(range(len(starts) + 1), k=rng.randint(0, 6)))
            servers: set[str] = set()
            pieces = []
            for lo, hi in zip([0] + cuts, cuts + [len(starts)]):
                pieces += decide_starts(starts, snis, lo, hi, servers, config)
            assert pieces == whole


class TestSplitSessionsDegenerateInputs:
    def test_empty_stream_returns_empty_list(self):
        assert split_sessions([]) == []

    def test_single_transaction_is_one_session(self):
        t = txn(0.0, "www")
        assert split_sessions([t], min_transactions=5) == [[t]]

    def test_min_transactions_validated(self):
        with pytest.raises(ValueError, match="min_transactions"):
            split_sessions([txn(0.0, "www")], min_transactions=0)


class TestEvaluateBoundaryDetection:
    def test_confusion_layout(self):
        pred = np.array([True, False, True, False])
        actual = np.array([True, False, False, True])
        cm = evaluate_boundary_detection(pred, actual)
        # Rows: actual existing/new; cols: predicted existing/new.
        np.testing.assert_array_equal(cm, [[1, 1], [1, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_boundary_detection(np.array([True]), np.array([True, False]))


class TestBackToBackStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            back_to_back_stream("svc1", 0)
        with pytest.raises(ValueError):
            back_to_back_stream("svc1", 2, browse_gap_s=-1.0)

    def test_stream_structure(self):
        stream = back_to_back_stream("svc1", 4, seed=1)
        assert stream.n_sessions == 4
        assert stream.is_new.sum() == 4
        assert len(stream.session_of) == len(stream)
        starts = [t.start for t in stream.transactions]
        assert starts == sorted(starts)

    def test_sessions_overlap_via_lingering_connections(self):
        """The reason timeout-based splitting fails (paper §2.2)."""
        stream = back_to_back_stream("svc1", 4, seed=2, browse_gap_s=0.0)
        overlaps = 0
        for sid in range(3):
            this = [
                t.end
                for t, s in zip(stream.transactions, stream.session_of)
                if s == sid
            ]
            nxt = [
                t.start
                for t, s in zip(stream.transactions, stream.session_of)
                if s == sid + 1
            ]
            if this and nxt and max(this) > min(nxt):
                overlaps += 1
        assert overlaps >= 1

    def test_heuristic_beats_chance_on_stream(self):
        stream = back_to_back_stream("svc1", 10, seed=3)
        pred = detect_session_starts(stream.transactions)
        cm = evaluate_boundary_detection(pred, stream.is_new)
        existing_correct = cm[0, 0] / cm[0].sum()
        new_correct = cm[1, 1] / cm[1].sum()
        assert existing_correct > 0.85
        assert new_correct > 0.5

    def test_determinism(self):
        a = back_to_back_stream("svc2", 3, seed=5)
        b = back_to_back_stream("svc2", 3, seed=5)
        assert len(a) == len(b)
        assert a.offsets == b.offsets
