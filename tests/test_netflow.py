"""Tests for repro.netflow (exporter + features).

The columnar exporter's contract is equality with the per-connection
loop it replaced (``tests/flow_oracle.py``): every session's flow
records, field for field, and the flow matrix byte for byte — on
collected corpora here and in ``tests/test_features_columnar.py``, and
on random transfer tables built to hit every timeout, tie and
summation-order edge (:class:`TestOracleProperties`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection.dataset import Dataset
from repro.collection.harness import collect_corpus
from repro.netflow.exporter import ExporterConfig, export_flow_table
from repro.netflow.features import FLOW_FEATURE_NAMES, extract_flow_matrix
from tests.flow_oracle import (
    FlowRecord,
    columnar_records,
    export_flows,
    extract_flow_features,
)


@pytest.fixture(scope="module")
def corpus():
    return collect_corpus("svc2", 12, seed=8)


def session_flows(transfers, config=None):
    """One session's records from the columnar exporter."""
    return columnar_records(
        export_flow_table(transfers, [0, transfers.shape[0]], config), 0
    )


class Block:
    """A bare block of sessions: what ``extract_flow_matrix`` reads."""

    def __init__(self, transfers, offsets):
        self.transfers, self.offsets = transfers, np.asarray(offsets)

    def __len__(self):
        return self.offsets.shape[0] - 1

    def block_readers(self):
        return (self,)

    def transfer_block(self):
        return self.transfers, self.offsets


def transfer_rows(conn, start, end, up=100.0, down=1000.0, pkts_down=10.0, pkts_up=2.0):
    """Transfer rows with the exporter's columns filled in."""
    start = np.asarray(start, dtype=np.float64)
    rows = np.zeros((start.shape[0], 10))
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = conn, start, start, end
    rows[:, 4], rows[:, 5], rows[:, 6], rows[:, 7] = up, down, pkts_down, pkts_up
    return rows


def assert_matches_oracle(transfers, offsets, config=None):
    """Columnar records and matrix equal the oracle's, session by session."""
    flows = export_flow_table(transfers, offsets, config)
    sessions = [transfers[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    for s, rows in enumerate(sessions):
        assert columnar_records(flows, s) == export_flows(rows, config)
    try:
        want = np.vstack(
            [extract_flow_features(export_flows(rows, config)) for rows in sessions]
        )
    except ValueError:
        with pytest.raises(ValueError, match="no flow record"):
            extract_flow_matrix(Block(transfers, offsets), config)
        return flows
    got, _ = extract_flow_matrix(Block(transfers, offsets), config)
    assert got.tobytes() == want.tobytes()
    return flows


class TestFlowRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowRecord(0, 2.0, 1.0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            FlowRecord(0, 0.0, 1.0, -1, 0, 0, 0)

    def test_duration(self):
        assert FlowRecord(0, 1.0, 3.5, 1, 1, 1, 1).duration == 2.5


class TestExporterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExporterConfig(active_timeout_s=0.0)
        with pytest.raises(ValueError):
            ExporterConfig(idle_timeout_s=-1.0)


class TestExportFlows:
    def test_nonempty_sessions_export_flows(self, corpus):
        for record in corpus:
            flows = session_flows(record.transfers)
            assert flows
            starts = [f.start for f in flows]
            assert starts == sorted(starts)

    def test_byte_conservation(self, corpus):
        """Exported counters must account for all transferred bytes."""
        record = corpus[0]
        flows = session_flows(record.transfers)
        total_down = sum(f.bytes_down for f in flows)
        total_up = sum(f.bytes_up for f in flows)
        expected_down = record.transfers[:, 5].sum()
        expected_up = record.transfers[:, 4].sum()
        assert total_down == pytest.approx(expected_down, rel=0.01)
        assert total_up == pytest.approx(expected_up, rel=0.01)

    def test_active_timeout_slices_long_flows(self, corpus):
        record = corpus[0]
        coarse = session_flows(record.transfers, ExporterConfig(active_timeout_s=3600.0))
        fine = session_flows(record.transfers, ExporterConfig(active_timeout_s=20.0))
        assert len(fine) >= len(coarse)
        assert all(f.duration <= 20.0 + 1e-6 for f in fine)

    def test_idle_timeout_splits_gappy_flows(self, corpus):
        record = corpus[0]
        patient = session_flows(record.transfers, ExporterConfig(idle_timeout_s=1e6))
        eager = session_flows(record.transfers, ExporterConfig(idle_timeout_s=1.0))
        assert len(eager) >= len(patient)

    def test_one_record_per_connection_with_huge_timeouts(self, corpus):
        record = corpus[0]
        flows = session_flows(
            record.transfers, ExporterConfig(active_timeout_s=1e7, idle_timeout_s=1e7)
        )
        assert len(flows) == len({f.flow_id for f in flows})

    def test_empty_record(self):
        flows = export_flow_table(np.empty((0, 10)), [0, 0])
        assert flows.counts.tolist() == [0]
        assert columnar_records(flows, 0) == []

    def test_records_match_oracle_per_session(self, corpus):
        for config in (None, ExporterConfig(20.0, 1.0), ExporterConfig(3.0, 0.5)):
            for record in corpus:
                assert session_flows(record.transfers, config) == export_flows(
                    record.transfers, config
                )

    @pytest.mark.parametrize(
        "column, name",
        [(0, "connection_id"), (1, "start"), (3, "end"), (5, "bytes_down")],
    )
    def test_non_finite_transfer_rejected(self, column, name):
        rows = transfer_rows(1, [0.0, 1.0], [1.0, 2.0])
        rows[1, column] = np.nan
        with pytest.raises(ValueError, match=name):
            export_flow_table(rows, [0, 2])

    @pytest.mark.parametrize("column, name", [(4, "bytes_up"), (7, "packets_up")])
    def test_negative_counter_rejected(self, column, name):
        rows = transfer_rows(1, [0.0, 1.0], [1.0, 2.0])
        rows[:, column] = -50.0
        with pytest.raises(ValueError, match=name):
            export_flow_table(rows, [0, 2])


class TestFlowFeatures:
    def test_schema(self):
        assert len(FLOW_FEATURE_NAMES) == 41
        assert "PKTS_PER_SEC" in FLOW_FEATURE_NAMES

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_flow_features([])
        rows = transfer_rows(3, [0.0, 2.0], [1.0, 4.0])
        with pytest.raises(ValueError, match="session 1 exports no flow record"):
            extract_flow_matrix(Block(rows, [0, 2, 2]))
        silent = transfer_rows(3, [0.0], [1.0], up=0.0, down=0.0, pkts_down=0.0, pkts_up=0.0)
        with pytest.raises(ValueError, match="session 0 exports no flow record"):
            extract_flow_matrix(Block(silent, [0, 1]))

    def test_features_finite(self, corpus):
        X, _ = extract_flow_matrix(corpus)
        assert X.shape == (len(corpus), 41)
        assert np.isfinite(X).all()

    def test_matrix(self, corpus):
        X, names = extract_flow_matrix(corpus)
        assert X.shape == (len(corpus), 41)
        assert names == FLOW_FEATURE_NAMES

    def test_empty_corpus(self):
        X, names = extract_flow_matrix(Dataset(service="svc1"))
        assert X.shape == (0, len(names))

    def test_packet_size_feature_reasonable(self, corpus):
        X, names = extract_flow_matrix(corpus)
        med_down = X[:, names.index("PKT_SIZE_DOWN_MED")]
        # Downlink packets are near-MSS for video traffic.
        assert np.median(med_down) > 500


class TestOracleEdges:
    """Hand-built tables for each bit-level behaviour of the loop."""

    def test_gap_equal_to_idle_timeout_does_not_split(self):
        config = ExporterConfig(active_timeout_s=60.0, idle_timeout_s=1.5)
        rows = transfer_rows(4, [0.0, 2.5, 5.5], [1.0, 4.0, 6.0])  # gaps 1.5, 1.5
        flows = assert_matches_oracle(rows, [0, 3], config)
        assert flows.counts.tolist() == [1]
        rows[2, 1] = 5.5 + 1e-9  # just past the timeout
        assert assert_matches_oracle(rows, [0, 3], config).counts.tolist() == [2]

    def test_last_activity_spans_idle_splits(self):
        # The long first transfer keeps the connection active through the
        # second one's idle-looking gap.
        rows = transfer_rows(1, [0.0, 1.0, 30.0], [40.0, 2.0, 41.0])
        flows = assert_matches_oracle(rows, [0, 3], ExporterConfig(60.0, 5.0))
        assert flows.counts.tolist() == [1]

    def test_flow_spanning_several_active_timeouts(self):
        rows = transfer_rows(2, [0.1], [10.0], down=12345.0)
        config = ExporterConfig(active_timeout_s=0.7, idle_timeout_s=15.0)
        flows = assert_matches_oracle(rows, [0, 1], config)
        assert flows.counts.tolist() == [15]  # 14 flushes and the tail
        # Bounds come from repeated addition, not start + k * timeout.
        bound = 0.1
        for start in flows.records.start:
            assert start == bound
            bound = bound + 0.7

    def test_zero_duration_transfers_get_no_share(self):
        rows = transfer_rows(5, [0.0, 3.0, 3.0], [6.0, 3.0, 9.0], down=[600.0, 77.0, 600.0])
        config = ExporterConfig(active_timeout_s=2.0, idle_timeout_s=15.0)
        flows = assert_matches_oracle(rows, [0, 3], config)
        assert flows.records.downlink.sum() == 1200.0

    def test_equal_starts_and_unsorted_interleaved_connections(self):
        rows = np.vstack(
            [
                transfer_rows(9, [5.0, 0.0], [6.0, 2.0]),
                transfer_rows(2, [0.0, 5.0], [2.0, 7.0]),
                transfer_rows(9, [0.0], [1.5], down=5.0),
                transfer_rows(4, [5.0], [6.0]),
            ]
        )
        flows = assert_matches_oracle(rows, [0, 6], ExporterConfig(60.0, 1.0))
        # Ties on (start, end) keep connection-id order.
        assert flows.flow_id.tolist() == [2, 9, 4, 9, 2]

    @pytest.mark.parametrize("width", [3, 8, 9, 17, 129, 300])
    def test_summation_order(self, width):
        """Each slice sums its connection's rows in ``ndarray.sum``'s
        pairwise order: with one 2**53-byte row among 1-byte rows, the
        rows summed reversed or strictly left to right round differently."""
        starts = np.arange(width) * 0.1
        down = np.ones(width)
        down[0] = 2.0**53
        rows = transfer_rows(1, starts, starts + 0.05, down=down)
        flows = assert_matches_oracle(rows, [0, width])
        assert flows.counts.tolist() == [1]

    @pytest.mark.parametrize("width", [7, 8, 9, 127, 128, 129, 300, 513])
    def test_long_connections_sum_like_the_loop(self, width):
        rng = np.random.default_rng(width)
        starts = np.sort(rng.uniform(0.0, 30.0, width))
        rows = transfer_rows(
            1, starts, starts + rng.exponential(0.5, width),
            up=rng.uniform(0, 1e5, width), down=rng.uniform(0, 1e7, width),
            pkts_down=rng.uniform(0, 1e4, width), pkts_up=rng.uniform(0, 1e3, width),
        )
        for config in (ExporterConfig(), ExporterConfig(2.0, 0.3)):
            assert_matches_oracle(rows, [0, width], config)


@st.composite
def transfer_tables(draw):
    """A block of sessions' transfer rows and an exporter config.

    Starts sit on a coarse grid, so equal starts and gaps exactly equal
    to the idle timeout are common; durations are zero, on the grid or
    arbitrary; connection ids are few, interleaved and unsorted; some
    counters are zero; a connection may be long enough to cross numpy's
    pairwise-summation thresholds (8 and 128 rows); and a session may
    have no transfers at all.
    """
    rng = draw(st.randoms(use_true_random=True))
    grid = draw(st.sampled_from((0.25, 0.5, 1.0)))
    config = ExporterConfig(
        active_timeout_s=draw(st.sampled_from((0.5, 1.0, 2.5, 7.0, 60.0))),
        idle_timeout_s=draw(st.sampled_from((0.5, 1.0, 1.5, 15.0))),
    )
    sessions = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for conn in rng.sample(range(20), draw(st.integers(1, 4))):
            width = draw(st.sampled_from((1, 2, 3, 7, 8, 9, 20, 129, 200)))
            for _ in range(width):
                start = rng.randrange(0, 64) * grid
                duration = rng.choice((0.0, grid, 3 * grid, rng.uniform(0.0, 5.0)))
                counters = [
                    rng.choice((0.0, float(rng.randrange(1, 10**hi))))
                    for hi in (5, 7, 4, 3)
                ]
                rows.append([conn, start, start, start + duration, *counters, 0.0, 0.0])
        rng.shuffle(rows)
        sessions.append(np.array(rows, dtype=np.float64))
    if rng.random() < 0.1:  # now and then, a session without transfers
        sessions.insert(rng.randrange(len(sessions) + 1), np.empty((0, 10)))
    offsets = np.zeros(len(sessions) + 1, dtype=np.int64)
    np.cumsum([s.shape[0] for s in sessions], out=offsets[1:])
    return np.concatenate(sessions), offsets, config


class TestOracleProperties:
    """For any transfer table, the columnar exporter emits the oracle's
    records, session by session, and the oracle's flow matrix."""

    @settings(max_examples=80, deadline=None)
    @given(case=transfer_tables())
    def test_columnar_equals_oracle(self, case):
        transfers, offsets, config = case
        assert_matches_oracle(transfers, offsets, config)
