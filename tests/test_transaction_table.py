"""Tests for the columnar transaction table and segment primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tlsproxy.proxy import TransparentProxy
from repro.tlsproxy.records import TlsTransaction, transactions_to_columns
from repro.tlsproxy.table import (
    TransactionTable,
    ordered_sum,
    segment_min_med_max,
    segment_sort,
    segment_sum,
)
from tests.scoring_oracle import columns_per_row


def txn(start, end, up=10, down=100, sni="edge.cdn.example"):
    return TlsTransaction(
        start=start, end=end, uplink_bytes=up, downlink_bytes=down, sni=sni
    )


class TestSegmentPrimitives:
    def test_ordered_sum_matches_reduceat_segments(self):
        rng = np.random.default_rng(0)
        values = rng.random(500) * 1e8
        offsets = np.array([0, 3, 3, 17, 200, 500], dtype=np.int64)
        sums = segment_sum(values, offsets)
        for s, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            assert sums[s] == ordered_sum(values[lo:hi])

    def test_segment_sum_empty_segments_are_zero(self):
        values = np.array([1.0, 2.0, 4.0])
        offsets = np.array([0, 0, 2, 2, 3, 3], dtype=np.int64)
        np.testing.assert_array_equal(
            segment_sum(values, offsets), [0.0, 3.0, 0.0, 4.0, 0.0]
        )

    def test_ordered_sum_empty(self):
        assert ordered_sum(np.array([])) == 0.0

    def test_min_med_max_matches_numpy_per_segment(self):
        rng = np.random.default_rng(1)
        values = rng.random(300) * 1e6
        cuts = np.sort(rng.choice(np.arange(1, 300), size=40, replace=False))
        offsets = np.concatenate([[0], cuts, [300]]).astype(np.int64)
        mins, meds, maxs = segment_min_med_max(values, offsets)
        for s, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            seg = values[lo:hi]
            assert mins[s] == seg.min()
            assert meds[s] == np.median(seg)
            assert maxs[s] == seg.max()

    def test_min_med_max_empty_segments_zero(self):
        values = np.array([5.0, 1.0])
        offsets = np.array([0, 0, 2], dtype=np.int64)
        mins, meds, maxs = segment_min_med_max(values, offsets)
        assert (mins[0], meds[0], maxs[0]) == (0.0, 0.0, 0.0)
        assert (mins[1], meds[1], maxs[1]) == (1.0, 3.0, 5.0)


@st.composite
def segmented_stacks(draw, values):
    """A ``(k, n)`` stack of ``values`` cut into 1-8 contiguous segments;
    segments may be empty or hold one row."""
    counts = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8))
    n = sum(counts)
    k = draw(st.integers(1, 4))
    stack = np.array(
        draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=k, max_size=k)),
        dtype=np.float64,
    ).reshape(k, n)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return stack, offsets


#: Few distinct values, so segments hold ties.
TIED = st.sampled_from((0.0, 1.0, 1.0, 2.5, 7.0, -3.0, 1e9))
#: Both signs of zero, often tied with each other.
SIGNED_ZEROS = st.sampled_from((-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 2.5))


class TestSegmentKernelProperties:
    """The stacked primitives against per-segment numpy and the
    ``np.lexsort`` they replaced, bit for bit."""

    # ``v + 0.0`` turns ``-0.0`` into ``0.0``: numpy's min and median
    # may read either zero of a tie, where the kernel reads a stable
    # sort's (held by the lexsort property below).
    @settings(max_examples=200, deadline=None)
    @given(data=segmented_stacks(TIED | st.floats(-1e6, 1e6).map(lambda v: v + 0.0)))
    def test_min_med_max_equals_numpy_per_segment(self, data):
        stack, offsets = data
        mins, meds, maxs = segment_min_med_max(stack, offsets)
        assert mins.shape == meds.shape == maxs.shape == (stack.shape[0], offsets.size - 1)
        for r, row in enumerate(stack):
            one = segment_min_med_max(row, offsets)
            assert np.stack(one).tobytes() == np.stack([mins[r], meds[r], maxs[r]]).tobytes()
            for s, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
                seg = row[lo:hi]
                want = (seg.min(), np.median(seg), seg.max()) if seg.size else (0.0, 0.0, 0.0)
                assert np.array(want).tobytes() == np.array(
                    [mins[r, s], meds[r, s], maxs[r, s]]
                ).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=segmented_stacks(SIGNED_ZEROS | TIED))
    def test_segment_sort_equals_lexsort(self, data):
        """Equal values keep their bits wherever the value sort put
        them, except the two zeros, which come back in row order."""
        stack, offsets = data
        ids = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        got = segment_sort(stack, ids)
        for r, row in enumerate(stack):
            assert got[r].tobytes() == row[np.lexsort((row, ids))].tobytes()
            assert segment_sort(row, ids).tobytes() == got[r].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=segmented_stacks(st.floats(0, 1e7)))
    def test_stacked_sums_equal_each_row(self, data):
        stack, offsets = data
        sums = segment_sum(stack, offsets)
        for r, row in enumerate(stack):
            assert sums[r].tobytes() == segment_sum(row, offsets).tobytes()


#: Record fields as callers pass them: Python ints (byte counts past
#: 2**53 and 2**63 included), floats, and numpy scalars.
TIMES = st.floats(0, 1e9) | st.integers(0, 2**40) | st.integers(0, 10).map(np.int64)
BYTES = (
    st.integers(0, 2**70)
    | st.sampled_from((2**53 + 1, 2**63 - 1, 2**63 + 1, 2**64 + 3))
    | st.floats(0, 1e18)
    | st.integers(0, 10**6).map(np.int32)
)


@st.composite
def transaction_lists(draw):
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        start = draw(TIMES)
        rows.append(
            TlsTransaction(
                start=start,
                end=start + draw(st.sampled_from((0, 0.5, 3))),
                uplink_bytes=draw(BYTES),
                downlink_bytes=draw(BYTES),
                sni=draw(st.sampled_from(("a.example", "b.example"))),
            )
        )
    return rows


class TestBatchExport:
    @settings(max_examples=200, deadline=None)
    @given(transactions=transaction_lists())
    def test_columns_equal_per_row_stores(self, transactions):
        got = transactions_to_columns(transactions)
        want = columns_per_row(transactions)
        for g, w in zip(got[:4], want[:4]):
            assert g.dtype == w.dtype == np.float64
            assert g.flags.c_contiguous and g.shape == (len(transactions),)
            assert g.tobytes() == w.tobytes()
        assert got[4] == want[4]

    def test_transactions_to_columns(self):
        txns = [txn(0.0, 1.0, 5, 50, "a"), txn(2.0, 4.0, 7, 70, "b")]
        start, end, up, down, sni = transactions_to_columns(txns)
        np.testing.assert_array_equal(start, [0.0, 2.0])
        np.testing.assert_array_equal(end, [1.0, 4.0])
        np.testing.assert_array_equal(up, [5.0, 7.0])
        np.testing.assert_array_equal(down, [50.0, 70.0])
        assert sni == ("a", "b")
        assert start.dtype == np.float64


class TestTransactionTable:
    def make(self):
        return TransactionTable.from_sessions(
            [
                [txn(0.0, 1.0, sni="a"), txn(0.5, 3.0, sni="b")],
                [txn(10.0, 12.0, sni="c")],
                [txn(20.0, 21.0, sni="a"), txn(20.1, 22.0, sni="a"),
                 txn(23.0, 25.0, sni="d")],
            ]
        )

    def test_shape(self):
        table = self.make()
        assert table.n_rows == 6
        assert table.n_sessions == 3
        assert len(table) == 3
        np.testing.assert_array_equal(table.counts, [2, 1, 3])
        np.testing.assert_array_equal(table.offsets, [0, 2, 3, 6])
        np.testing.assert_array_equal(table.session_ids, [0, 0, 1, 2, 2, 2])

    def test_session_slice_views(self):
        table = self.make()
        middle = table.session(1)
        assert middle.n_sessions == 1
        np.testing.assert_array_equal(middle.start, [10.0])
        assert middle.sni == ("c",)
        with pytest.raises(IndexError):
            table.session(3)

    def test_transactions_roundtrip(self):
        sessions = [
            [txn(0.0, 1.0, sni="a"), txn(0.5, 3.0, sni="b")],
            [txn(10.0, 12.0, sni="c")],
        ]
        table = TransactionTable.from_sessions(sessions)
        assert table.transactions(0) == sessions[0]
        assert table.transactions(1) == sessions[1]
        assert table.transactions() == sessions[0] + sessions[1]

    def test_from_transactions_single_segment(self):
        txns = [txn(0.0, 1.0), txn(5.0, 6.0)]
        table = TransactionTable.from_transactions(txns)
        assert table.n_sessions == 1
        assert table.n_rows == 2

    def test_empty(self):
        table = TransactionTable.from_sessions([])
        assert table.n_rows == 0
        assert table.n_sessions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TransactionTable(
                start=np.zeros(2), end=np.zeros(2), uplink=np.zeros(2),
                downlink=np.zeros(3), offsets=np.array([0, 2]),
            )
        with pytest.raises(ValueError):
            TransactionTable(
                start=np.zeros(2), end=np.zeros(2), uplink=np.zeros(2),
                downlink=np.zeros(2), offsets=np.array([0, 1]),
            )
        with pytest.raises(ValueError):
            TransactionTable(
                start=np.zeros(2), end=np.zeros(2), uplink=np.zeros(2),
                downlink=np.zeros(2), offsets=np.array([0, 2]), sni=("a",),
            )

    @pytest.mark.parametrize(
        "column, row, value, message",
        [
            ("start", 0, np.nan, "start must be finite, got nan at row 0"),
            ("end", 2, np.inf, "end must be finite, got inf at row 2"),
            ("downlink", 1, -np.inf, "downlink must be finite, got -inf at row 1"),
            ("end", 1, 0.5, "end is before start at row 1"),
            ("uplink", 2, -1.0, "uplink must be non-negative, got -1.0 at row 2"),
            ("downlink", 0, -3.0, "downlink must be non-negative, got -3.0 at row 0"),
        ],
    )
    def test_row_values_are_checked(self, column, row, value, message):
        """The constructor rejects what ``TlsTransaction`` rejects, for
        rows that never were record objects."""
        columns = {
            "start": np.array([0.0, 1.0, 2.0]),
            "end": np.array([1.0, 2.0, 2.0]),
            "uplink": np.array([0.0, 5.0, 5.0]),
            "downlink": np.array([9.0, 9.0, 0.0]),
        }
        TransactionTable(**columns, offsets=np.array([0, 3]))
        columns[column][row] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransactionTable(**columns, offsets=np.array([0, 3]))

    def test_empty_sni_is_rejected(self):
        zeros = np.zeros(2)
        with pytest.raises(ValueError, match="sni must be non-empty at row 1"):
            TransactionTable(
                start=zeros, end=zeros, uplink=zeros, downlink=zeros,
                offsets=np.array([0, 2]), sni=("a", ""),
            )

    def test_iter_sessions(self):
        table = self.make()
        slices = table.iter_sessions()
        assert [s.n_rows for s in slices] == [2, 1, 3]


class TestProxyTableExport:
    def make_pool(self):
        from repro.net.bandwidth import BandwidthTrace, TraceFamily
        from repro.net.link import Link
        from repro.net.tcp import TcpParams
        from repro.tlsproxy.connection import TlsConnectionPool

        trace = BandwidthTrace(
            times=np.array([0.0]),
            bandwidth_bps=np.array([40e6]),
            duration=3600.0,
            family=TraceFamily.FCC,
        )
        return TlsConnectionPool(
            Link(trace=trace),
            np.random.default_rng(0),
            lambda rng: TcpParams(rtt_s=0.04, loss_rate=0.0),
        )

    def test_export_table_matches_export(self):
        from repro.tlsproxy.records import ResourceType

        pool = self.make_pool()
        r1 = pool.fetch(0.0, "a.example", 400, 10_000, ResourceType.VIDEO_SEGMENT)
        r2 = pool.fetch(1.0, "b.example", 400, 20_000, ResourceType.VIDEO_SEGMENT)
        pool.shutdown(at=max(r1.http.end, r2.http.end))
        proxy = TransparentProxy()
        proxy.observe_all(pool.all_connections)
        table = proxy.export_table()
        records = proxy.export()
        assert table.n_sessions == 1
        assert table.n_rows == len(records) == 2
        assert table.transactions() == records
