"""The row synthesizer and columnar ML16 featurizer against their oracle.

``tests/packet_oracle.py`` keeps the per-transfer synthesis loop and the
per-connection featurizer they replaced.  Hypothesis draws transfer and
connection tables (and hand-built packet traces, for the ties no
synthesized trace produces) and every array, feature and generator
state must match bit for bit.  Run from the repository root with
``python -m pytest`` (the oracle is imported as ``tests.packet_oracle``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import config, telemetry
from repro.collection.dataset import Dataset
from repro.collection.harness import CollectionConfig, collect_corpus
from repro.features import packet_features
from repro.features.packet_features import extract_ml16_features, extract_ml16_matrix
from repro.features.segments import ConnectionPackets, segments_by_connection
from repro.net.packets import PacketTrace, synthesize_from_rows, synthesize_packet_trace
from tests import packet_oracle as oracle
from tests.packet_oracle import as_objects

FIELDS = ("timestamps", "sizes", "directions", "is_retransmit", "connection_ids")

#: Coarse times, so transfers and connections tie with one another.
coarse_times = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])


@st.composite
def session_tables(draw):
    """A session's ``(transfers, connections)`` rows: zero-byte and
    MSS-multiple responses, more retransmits than data packets, more
    uplink packets than requests and ACKs need, transfers on
    connections without a handshake row, and empty tables."""
    n_conn = draw(st.integers(0, 3))
    connections = [
        (cid, draw(coarse_times), draw(st.sampled_from([0.0, 0.02, 0.1])))
        for cid in range(n_conn)
    ]
    transfers = []
    for _ in range(draw(st.integers(0, 5))):
        start = draw(coarse_times)
        response_start = start + draw(st.sampled_from([0.0, 0.01, 0.5]))
        end = response_start + draw(st.sampled_from([0.0, 1e-7, 0.2, 1.0]))
        transfers.append((
            draw(st.integers(0, n_conn)),
            start,
            response_start,
            end,
            draw(st.integers(0, 5_000)),
            draw(st.one_of(
                st.just(0),
                st.integers(0, 40).map(lambda k: 1460 * k),
                st.integers(1, 100_000),
            )),
            draw(st.integers(0, 60)),
            draw(st.integers(0, 80)),
            draw(st.integers(0, 80)),
            draw(st.sampled_from([0.0, 0.03, 0.1])),
        ))
    return (
        np.array(transfers, dtype=np.float64).reshape(-1, 10),
        np.array(connections, dtype=np.float64).reshape(-1, 3),
    )


def assert_same_trace(actual: PacketTrace, expected: PacketTrace) -> None:
    for field in FIELDS:
        a, e = getattr(actual, field), getattr(expected, field)
        assert a.dtype == e.dtype, field
        assert a.tobytes() == e.tobytes(), field


#: One transfer whose retransmit draw takes numpy's tail-shuffle branch
#: (over 10,000 data packets), between two pacing draws.
BIG = np.array([
    [0, 0.0, 0.1, 0.3, 400, 500_000, 40, 21, 3, 0.05],
    [0, 0.4, 0.5, 9.0, 400, 12_000 * 1460, 12_000, 6_001, 900, 0.05],
    [1, 0.4, 0.6, 0.9, 400, 30_000, 21, 11, 0, 0.05],
])


class TestSynthesisOracle:
    @given(tables=session_tables(), seed=st.integers(0, 2**32 - 1))
    @example(tables=(BIG, np.array([[0, 0.0, 0.05], [1, 0.35, 0.0]])), seed=3)
    @example(tables=(np.empty((0, 10)), np.empty((0, 3))), seed=0)
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_per_transfer_loop(self, tables, seed):
        transfers, connections = tables
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        actual = synthesize_from_rows(transfers, connections, rng)
        expected = oracle.synthesize_packet_trace(
            *as_objects(transfers, connections), reference_rng
        )
        assert_same_trace(actual, expected)
        # The same draws in the same order leave the generators in step.
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @given(tables=session_tables(), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_object_adapter_matches(self, tables, seed):
        objects = as_objects(*tables)
        assert_same_trace(
            synthesize_packet_trace(*objects, rng=np.random.default_rng(seed)),
            oracle.synthesize_packet_trace(*objects, np.random.default_rng(seed)),
        )

    def test_acks_never_outnumber_odd_data_packets(self):
        # The oracle pads ACK sources past the last odd-indexed data
        # packet; requests absorb every uplink packet the ACKs cannot
        # take, so that branch never runs and the row path has none.
        for n_down in range(0, 40):
            for n_up in range(0, 60):
                n_req = max(1, n_up - n_down // 2)
                assert n_up - n_req <= n_down // 2

    def test_record_trace_matches(self):
        record = collect_corpus("svc1", 1, seed=2, n_jobs=1)[0]
        assert_same_trace(record.packet_trace(seed=5), oracle.session_trace(record, 5))


#: Hand-built packets: requests (uplink >= 300 bytes), ACKs, handshake
#: sizes and data, including single packets big enough to make a
#: segment on their own.
packet_sizes = st.sampled_from([66, 74, 146, 299, 300, 583, 1526, 25_000])


@st.composite
def packet_traces(draw):
    """Time-sorted traces on a coarse time grid, so packets of one or
    several connections tie, data lands at its request's timestamp on
    either side of it, and connections lack requests or data."""
    n = draw(st.integers(1, 50))
    big_ids = draw(st.booleans())  # ids too far apart for the int16 sort
    ids = st.sampled_from([0, 1, 2, 70_000]) if big_ids else st.integers(0, 3)
    times = np.sort(np.array(draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.5]), min_size=n, max_size=n
    ))))
    return PacketTrace(
        timestamps=times,
        sizes=np.array(draw(st.lists(packet_sizes, min_size=n, max_size=n)), dtype=np.int32),
        directions=np.array(
            draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)), dtype=np.int8
        ),
        is_retransmit=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
        connection_ids=np.array(draw(st.lists(ids, min_size=n, max_size=n)), dtype=np.int64),
    )


def assert_same_features(trace: PacketTrace) -> None:
    expected = oracle.extract_ml16_features(trace)
    assert extract_ml16_features(trace).tobytes() == expected.tobytes()


def hand_trace(rows):
    """A trace from ``(time, size, direction, connection)`` rows,
    sorted by time (stable)."""
    t, s, d, c = zip(*sorted(rows, key=lambda row: row[0]))
    return PacketTrace(
        timestamps=np.array(t, dtype=np.float64),
        sizes=np.array(s, dtype=np.int32),
        directions=np.array(d, dtype=np.int8),
        is_retransmit=np.zeros(len(rows), dtype=bool),
        connection_ids=np.array(c, dtype=np.int64),
    )


#: Data at its request's timestamp, sorted ahead of the request, on
#: two connections whose requests tie.
DATA_AHEAD = hand_trace([
    (0.0, 74, 1, 0), (0.1, 25_000, 1, 0), (0.1, 583, -1, 0), (0.1, 583, -1, 1),
    (0.1, 25_000, 1, 1), (0.2, 25_000, 1, 0), (0.2, 400, -1, 0), (0.3, 25_000, 1, 1),
])
#: A connection with requests but no data, one with data but no
#: request, and one segment in all.
LOPSIDED = hand_trace([
    (0.0, 583, -1, 0), (0.1, 583, -1, 0), (0.1, 1526, 1, 1), (0.2, 74, 1, 1),
    (0.3, 583, -1, 2), (0.4, 25_000, 1, 2), (0.5, 66, -1, 2),
])


#: Twenty one-segment connections, each segment a different size:
#: connections 0-9 start theirs at 0.2, connections 10-19 at 0.1.  The
#: start sort must order the ties as the per-connection code's
#: ``np.argsort`` did, which here is not a stable order.
TIED_STARTS = hand_trace(
    [(0.2 if k < 10 else 0.1, 583, -1, k) for k in range(20)]
    + [(0.3, 25_000 + k, 1, k) for k in range(20)]
)


class TestFeaturizerOracle:
    @given(trace=packet_traces())
    @example(trace=DATA_AHEAD)
    @example(trace=LOPSIDED)
    @example(trace=TIED_STARTS)
    @settings(max_examples=300, deadline=None)
    def test_segments_match(self, trace):
        actual = segments_by_connection(ConnectionPackets.of(trace))
        expected = oracle.reconstruct_segments(trace)
        for field in ("start_times", "sizes_bytes", "durations"):
            a, e = getattr(actual, field), getattr(expected, field)
            assert a.dtype == e.dtype and a.tobytes() == e.tobytes(), field

    @given(trace=packet_traces())
    @example(trace=DATA_AHEAD)
    @example(trace=LOPSIDED)
    @settings(max_examples=300, deadline=None)
    def test_features_match(self, trace):
        assert_same_features(trace)

    def test_data_at_its_request_joins_it(self):
        segments = segments_by_connection(ConnectionPackets.of(DATA_AHEAD))
        # Connection 0's request at 0.1 takes the data at 0.1 sorted
        # ahead of it, and its request at 0.2 the data at 0.2;
        # connection 1's request at 0.1 takes the data at 0.1 and 0.3.
        assert segments.start_times.tolist() == [0.1, 0.1, 0.2]
        assert segments.sizes_bytes.tolist() == [25_000.0, 50_000.0, 25_000.0]

    @given(tables=session_tables(), seed=st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_synthesized_sessions_match(self, tables, seed):
        trace = oracle.synthesize_packet_trace(*as_objects(*tables), np.random.default_rng(seed))
        if trace.n_packets == 0:
            with pytest.raises(ValueError, match="empty packet trace"):
                extract_ml16_features(trace)
            return
        assert_same_features(trace)


@pytest.fixture(scope="module")
def stored_corpus(tmp_path_factory):
    config_ = CollectionConfig(min_watch_s=30.0, max_watch_s=90.0)
    records = collect_corpus("svc1", 7, seed=11, config=config_, n_jobs=1).sessions
    return Dataset("svc1", records).save(tmp_path_factory.mktemp("ml16") / "c.shards", shard_size=3)


class TestMatrix:
    @pytest.mark.parametrize("ranges_per_worker", [1, 2, 5])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_every_split_matches_the_reference(
        self, stored_corpus, monkeypatch, ranges_per_worker, n_jobs
    ):
        # Shards of 3, 3 and 1 sessions: ranges of 1-4 sessions, cut at
        # every block boundary.
        monkeypatch.setattr(packet_features, "_RANGES_PER_WORKER", ranges_per_worker)
        expected = oracle.reference_ml16_matrix(stored_corpus, seed=4)
        corpus = Dataset.load(stored_corpus.root)
        with config.override(jobs=n_jobs):
            X, names = extract_ml16_matrix(corpus, seed=4)
        assert names == packet_features.ML16_FEATURE_NAMES
        assert X.dtype == expected.dtype and X.tobytes() == expected.tobytes()
        assert corpus.counters["materialized"] == 0  # no record built

    def test_telemetry_survives_the_fan_out(self, stored_corpus):
        expected = sum(
            oracle.session_trace(record, i).n_packets for i, record in enumerate(stored_corpus)
        )
        with config.override(jobs=2), telemetry.tracing() as tracer:
            extract_ml16_matrix(stored_corpus)
        assert tracer.counters["ml16.packets_synthesized"] == expected
        (span,) = [e for e in tracer.events if e["name"] == "features.ml16"]
        assert span["attrs"] == {"sessions": 7, "rows": 7, "cols": 24, "packets": expected}

    def test_empty_corpus(self):
        X, names = extract_ml16_matrix(Dataset("svc1", []))
        assert X.shape == (0, len(names))
