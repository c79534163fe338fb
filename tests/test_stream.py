"""Tests for the streaming inference engine (repro.stream).

The load-bearing contract is *golden equivalence*: replaying any feed
through :class:`~repro.stream.engine.StreamDetector` must emit exactly
the verdicts of the batch pipeline — same session groups, bit-identical
feature vectors, same model categories — for every micro-batch size,
worker count, and service.  The remaining classes cover the pieces that
make that possible (incremental features, watermark gating, the
undersized-tail merge), the operational edges (eviction, late data,
telemetry reconciliation), and the engine's equality with the
per-event engine it replaced (``tests/session_oracle.py``), verdict by
verdict, for random feeds and any micro-batch split.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro import telemetry
from repro.config import override
from repro.features.tls_features import extract_tls_features, feature_names
from repro.sessions.boundary import BoundaryConfig, split_sessions, transaction_sort_key
from repro.sessions.workload import back_to_back_stream
from repro.stream.engine import StreamConfig, StreamDetector
from repro.stream.replay import (
    check_batch_equivalence,
    demo_streams,
    interleave,
    replay,
    synthetic_events,
)
from repro.tlsproxy.records import TlsTransaction
from tests.session_oracle import OracleStreamDetector, SessionAccumulator


def txn(start, sni, end=None, uplink=100, downlink=1000):
    return TlsTransaction(
        start=start,
        end=end if end is not None else start + 1.0,
        uplink_bytes=uplink,
        downlink_bytes=downlink,
        sni=sni,
    )


@pytest.fixture(scope="module")
def model():
    dataset = api.collect_corpus("svc3", n_sessions=24, seed=5, jobs=1)
    X, _ = api.extract_features(dataset)
    return api.train_model(
        X,
        dataset.labels("combined"),
        model={"kind": "random_forest", "n_estimators": 10, "random_state": 0},
    )


class TestGoldenEquivalence:
    """Streaming verdicts == batch pipeline verdicts, bit for bit."""

    @pytest.mark.parametrize("service", ["svc1", "svc3"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_streaming_equals_batch(self, service, jobs, model):
        streams = demo_streams(service, 3, 3, seed=7)
        with override("test", jobs=jobs):
            detector = StreamDetector(model)
            verdicts = replay(detector, interleave(streams), micro_batch=64)
            check_batch_equivalence(streams, verdicts, model)

    @pytest.mark.parametrize(
        "config,reasons",
        [
            (StreamConfig(score_batch=1), {"boundary", "flush"}),
            (StreamConfig(score_batch=7), {"boundary", "flush"}),
            (StreamConfig(score_batch=64), {"boundary", "flush"}),
            (
                StreamConfig(score_batch=64, min_transactions=1, idle_timeout_s=60.0),
                {"boundary", "eviction", "flush"},
            ),
        ],
        ids=["score1", "score7", "score64", "score64-evicting"],
    )
    def test_streaming_equals_batch_for_any_score_batch(self, config, reasons, model):
        """A score batch is featurized in one columnar pass, so the batch
        a session lands in must not change its vector.  The feed mixes
        single-transaction sessions (empty IAT segments), an undersized
        tail merged backwards and, under the short idle timeout,
        evicted sessions into shared score batches."""
        streams = demo_streams("svc1", 3, 3, seed=7)
        streams["lone"] = [txn(5.0, "www")]
        streams["tail"] = [
            txn(0.0, "www"), txn(0.2, "edge1"), txn(0.4, "edge2"),
            txn(5.0, "edge1"), txn(9.0, "edge2"),
            txn(60.0, "edge8"), txn(60.5, "edge9"),
        ]
        detector = StreamDetector(model, config=config)
        verdicts = replay(detector, interleave(streams), micro_batch=64)
        assert {v.reason for v in verdicts} == reasons
        assert min(v.n_transactions for v in verdicts) == 1
        check_batch_equivalence(streams, verdicts, model, config=config)

    def test_single_event_ingest_equals_micro_batch(self, model):
        streams = demo_streams("svc3", 2, 2, seed=3)
        events = interleave(streams)

        one = StreamDetector(model)
        singly = []
        for key, t in events:
            singly.extend(one.ingest(key, t))
        singly.extend(one.flush())

        many = StreamDetector(model)
        batched = replay(many, events, micro_batch=128)

        assert len(singly) == len(batched)
        for a, b in zip(singly, batched):
            assert (a.stream, a.session_index) == (b.stream, b.session_index)
            assert np.array_equal(a.features, b.features)
            assert a.category == b.category

    def test_tied_start_times_agree_with_batch(self):
        stream = [
            txn(0.0, "www"),
            txn(0.0, "edge1", end=2.5),
            txn(1.0, "edge2"),
            txn(60.0, "www", end=63.0),
            txn(60.0, "edge7", end=61.0),
            txn(60.0, "edge8", end=62.0),
        ]
        config = StreamConfig(min_transactions=1)
        detector = StreamDetector(config=config)
        verdicts = replay(detector, interleave({"u": stream}), micro_batch=1)
        groups = split_sessions(
            sorted(stream, key=transaction_sort_key), min_transactions=1
        )
        assert [v.n_transactions for v in verdicts] == [len(g) for g in groups]
        check_batch_equivalence({"u": stream}, verdicts, config=config)

    def test_verdicts_stream_out_before_the_feed_ends(self):
        """Boundary-closed sessions are emitted online, not at flush."""
        streams = demo_streams("svc1", 1, 4, seed=2)
        detector = StreamDetector(config=StreamConfig(score_batch=1))
        events = interleave(streams)
        early = detector.ingest_many(events)
        late = detector.flush()
        assert len(early) >= 1
        assert all(v.reason == "boundary" for v in early)
        assert all(v.reason == "flush" for v in late)
        check_batch_equivalence(streams, early + late)

    def test_undersized_tail_merges_backwards(self):
        """A trailing group below min_transactions joins its
        predecessor, exactly like the batch post-filter."""
        stream = [
            txn(0.0, "www"),
            txn(0.2, "edge1"),
            txn(0.4, "edge2"),
            txn(5.0, "edge1"),
            txn(9.0, "edge2"),
            # Boundary-worthy burst, but only 2 transactions follow.
            txn(60.0, "edge8"),
            txn(60.5, "edge9"),
        ]
        config = StreamConfig(min_transactions=5)
        detector = StreamDetector(config=config)
        verdicts = replay(detector, interleave({"u": stream}), micro_batch=1)
        assert len(verdicts) == 1
        assert verdicts[0].n_transactions == len(stream)
        check_batch_equivalence({"u": stream}, verdicts, config=config)


class TestSessionAccumulator:
    def _session(self, seed=1):
        stream = back_to_back_stream("svc3", 1, seed=seed)
        return sorted(stream.transactions, key=transaction_sort_key)

    def test_finalize_bit_identical_to_batch_extractor(self):
        group = self._session()
        acc = SessionAccumulator()
        for t in group:
            acc.add(t.start, t.end, t.uplink_bytes, t.downlink_bytes)
        assert np.array_equal(acc.finalize(), extract_tls_features(group))

    def test_finalize_does_not_consume(self):
        group = self._session(seed=2)
        acc = SessionAccumulator()
        for t in group:
            acc.add(t.start, t.end, t.uplink_bytes, t.downlink_bytes)
        first = acc.finalize()
        assert np.array_equal(first, acc.finalize())
        # Merging more rows afterwards still works (tail-merge path).
        acc.add(group[-1].end + 1.0, group[-1].end + 2.0, 10.0, 100.0)
        assert acc.n == len(group) + 1

    def test_vector_matches_schema_width(self):
        acc = SessionAccumulator()
        acc.add(0.0, 1.0, 10.0, 100.0)
        assert acc.finalize().shape == (len(feature_names()),)

    def test_out_of_order_add_rejected(self):
        acc = SessionAccumulator()
        acc.add(10.0, 11.0, 10.0, 100.0)
        with pytest.raises(ValueError, match="canonical time order"):
            acc.add(9.0, 12.0, 10.0, 100.0)

    def test_empty_finalize_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SessionAccumulator().finalize()


class TestStreamConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_transactions": 0},
            {"idle_timeout_s": 0.0},
            {"max_streams": 0},
            {"score_batch": 0},
            {"intervals": ()},
            {"late_policy": "buffer"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs)

    def test_defaults_match_batch_pipeline(self):
        config = StreamConfig()
        assert config.boundary.window_s == 3.0
        assert config.min_transactions == 5


class TestEviction:
    def _config(self, **kwargs):
        defaults = dict(min_transactions=1, idle_timeout_s=30.0)
        defaults.update(kwargs)
        return StreamConfig(**defaults)

    def test_idle_stream_is_evicted_with_final_verdict(self):
        detector = StreamDetector(config=self._config())
        out = []
        for t in [txn(0.0, "www"), txn(1.0, "edge1"), txn(2.0, "edge2")]:
            out.extend(detector.ingest("idle", t))
        # Another stream's traffic advances event time past the timeout.
        out.extend(detector.ingest("busy", txn(100.0, "www")))
        evicted = [v for v in out if v.reason == "eviction"]
        assert [v.stream for v in evicted] == ["idle"]
        assert evicted[0].n_transactions == 3
        assert detector.active_streams == 1
        assert detector.stats()["evicted"] == 1

    def test_evicted_features_match_batch_over_same_transactions(self):
        stream = [txn(0.0, "www"), txn(1.0, "edge1"), txn(2.0, "edge2")]
        detector = StreamDetector(config=self._config())
        out = []
        for t in stream:
            out.extend(detector.ingest("u", t))
        out.extend(detector.ingest("other", txn(500.0, "www")))
        (verdict,) = [v for v in out if v.stream == "u"]
        assert np.array_equal(
            verdict.features,
            extract_tls_features(sorted(stream, key=transaction_sort_key)),
        )

    def test_reingest_after_eviction_starts_fresh(self):
        detector = StreamDetector(config=self._config())
        detector.ingest("u", txn(0.0, "www"))
        out = detector.ingest("other", txn(100.0, "www"))
        assert [v.session_index for v in out if v.stream == "u"] == [0]
        # Same key again: a brand-new stream, indices restart at 0.
        detector.ingest("u", txn(101.0, "edge1"))
        final = detector.flush("u")
        assert [(v.stream, v.session_index) for v in final] == [("u", 0)]

    def test_capacity_cap_evicts_stalest_first(self):
        detector = StreamDetector(config=self._config(max_streams=2))
        detector.ingest("a", txn(0.0, "www"))
        detector.ingest("b", txn(1.0, "www"))
        detector.ingest("a", txn(2.0, "www"))  # refresh "a": "b" is stalest
        out = detector.ingest("c", txn(3.0, "www"))
        assert [v.stream for v in out if v.reason == "eviction"] == ["b"]
        assert detector.active_streams == 2
        assert set(detector._streams) == {"a", "c"}

    def test_counters_reconcile_with_telemetry(self):
        events, expected = synthetic_events(
            n_streams=20,
            sessions_per_stream=2,
            transactions_per_session=8,
            short_stream_every=5,
        )
        with telemetry.tracing() as tracer:
            detector = StreamDetector(
                config=StreamConfig(min_transactions=1, idle_timeout_s=50.0)
            )
            verdicts = replay(detector, events, micro_batch=64)
        stats = detector.stats()
        assert stats["ingested"] == expected["events"]
        assert stats["scored"] == len(verdicts) == expected["sessions"]
        assert stats["evicted"] == expected["short_streams"]
        assert stats["late_dropped"] == 0
        assert tracer.counters["stream.ingested"] == stats["ingested"]
        assert tracer.counters["stream.scored"] == stats["scored"]
        assert tracer.counters["stream.evicted"] == stats["evicted"]
        assert tracer.gauges["stream.active"] == 0.0
        assert tracer.hists["stream.decision_lag_s"][0] == stats["scored"]

    def test_score_spans_featurize_every_transaction_once(self):
        events, expected = synthetic_events(
            n_streams=20,
            sessions_per_stream=2,
            transactions_per_session=8,
            short_stream_every=5,
        )
        with telemetry.tracing() as tracer:
            detector = StreamDetector(
                config=StreamConfig(min_transactions=1, idle_timeout_s=50.0, score_batch=7)
            )
            replay(detector, events, micro_batch=64)
        spans = [e["attrs"] for e in tracer.events if e.get("name") == "stream.score"]
        assert sum(a["sessions"] for a in spans) == expected["sessions"]
        assert sum(a["transactions"] for a in spans) == expected["events"]


class TestLateData:
    def test_late_arrival_is_counted_and_dropped(self):
        detector = StreamDetector(config=StreamConfig(min_transactions=1))
        detector.ingest("u", txn(10.0, "www"))
        out = detector.ingest("u", txn(3.0, "edge1"))
        assert out == []
        assert detector.stats()["late_dropped"] == 1
        assert detector.stats()["ingested"] == 1

    def test_late_policy_error_raises(self):
        detector = StreamDetector(
            config=StreamConfig(min_transactions=1, late_policy="error")
        )
        detector.ingest("u", txn(10.0, "www"))
        with pytest.raises(ValueError, match="behind the stream watermark"):
            detector.ingest("u", txn(3.0, "edge1"))

    def test_rejected_micro_batch_changes_nothing(self):
        """Under late_policy="error" a batch is checked before any of it
        is applied: the capacity eviction its first event would trigger
        must not happen, or that verdict would be lost with the raise."""
        detector = StreamDetector(
            config=StreamConfig(min_transactions=1, late_policy="error", max_streams=1)
        )
        detector.ingest("a", txn(0.0, "www"))
        detector.ingest("a", txn(10.0, "edge1"))
        before = detector.stats()
        with pytest.raises(
            ValueError,
            match=r"stream 'b': start 5\.0 is behind the stream watermark 20\.0",
        ):
            detector.ingest_many([("b", txn(20.0, "www")), ("b", txn(5.0, "edge1"))])
        assert detector.stats() == before
        out = detector.ingest_many([("b", txn(20.0, "www"))])
        assert [(v.stream, v.reason, v.n_transactions) for v in out] == [
            ("a", "eviction", 2)
        ]

    def test_equal_to_watermark_is_not_late(self):
        detector = StreamDetector(config=StreamConfig(min_transactions=1))
        detector.ingest("u", txn(10.0, "www"))
        detector.ingest("u", txn(10.0, "edge1"))
        assert detector.stats()["late_dropped"] == 0
        assert detector.stats()["ingested"] == 2


class TestFlush:
    def test_flush_one_stream_leaves_others_open(self):
        detector = StreamDetector(config=StreamConfig(min_transactions=1))
        detector.ingest("a", txn(0.0, "www"))
        detector.ingest("b", txn(0.0, "www"))
        out = detector.flush("a")
        assert [v.stream for v in out] == ["a"]
        assert detector.active_streams == 1
        assert [v.stream for v in detector.flush()] == ["b"]

    def test_flush_is_idempotent_and_engine_stays_usable(self):
        detector = StreamDetector(config=StreamConfig(min_transactions=1))
        detector.ingest("a", txn(0.0, "www"))
        assert len(detector.flush()) == 1
        assert detector.flush() == []
        detector.ingest("a", txn(1.0, "www"))
        assert [v.session_index for v in detector.flush()] == [0]


def verdict_fields(v):
    """Every field of a verdict, the feature vector as raw bytes."""
    return (
        v.stream,
        v.session_index,
        v.n_transactions,
        v.session_start,
        v.session_end,
        v.category,
        v.reason,
        v.decided_at,
        v.features.tobytes(),
    )


def tied_feed(rng, n_events, keys, hosts, late_share=0.0):
    """A feed on a coarse time grid: many starts tie within and across
    streams, some rows are exact duplicates, and ``late_share`` of the
    events are moved back in time (late arrivals, unless their stream
    has not moved past them)."""
    events = []
    t = 0.0
    for _ in range(n_events):
        t += rng.choice([0.0, 0.0, 0.5, 1.0, 2.0, 4.0])
        start = t - (rng.choice([1.0, 3.0]) if rng.random() < late_share else 0.0)
        events.append(
            (
                rng.choice(keys),
                TlsTransaction(
                    start=start,
                    end=start + rng.choice([0.0, 1.0, 2.5]),
                    uplink_bytes=rng.choice([1, 2]),
                    downlink_bytes=rng.choice([10, 20]),
                    sni=rng.choice(hosts),
                ),
            )
        )
    return events


class TestEngineOracle:
    """The engine equals the per-event engine it replaced
    (``tests/session_oracle.py``): the same verdicts, every field, from
    the same call, and the same ``stats()`` after every call."""

    def test_engine_equals_per_event_oracle(self, model):
        paths = set()
        for seed in range(150):
            rng = random.Random(seed)
            config = StreamConfig(
                boundary=BoundaryConfig(
                    window_s=rng.choice([0.5, 1.0, 3.0, 7.5]),
                    n_min=rng.randint(1, 4),
                    delta_min=rng.choice([0.0, 0.5, 1.0]),
                ),
                min_transactions=rng.randint(1, 5),
                idle_timeout_s=rng.choice([2.0, 10.0, 900.0]),
                max_streams=rng.randint(1, 5),
                score_batch=rng.randint(1, 8),
            )
            keys = [f"s{i}" for i in range(rng.randint(1, 5))]
            hosts = [f"h{i}" for i in range(rng.randint(1, 6))]
            events = tied_feed(rng, rng.randint(0, 200), keys, hosts, late_share=0.1)
            engine = StreamDetector(model, config=config)
            oracle = OracleStreamDetector(model, config=config)
            i = 0
            while i <= len(events):
                r = rng.random()
                if i == len(events):
                    call = ("flush", None)
                    i += 1
                elif r < 0.3:
                    call = ("ingest", events[i])
                    i += 1
                elif r < 0.35:
                    call = ("flush", rng.choice(keys))
                else:
                    n = rng.randint(0, 12)
                    now = rng.choice([None] * 8 + [0.0, events[i][1].start + 50.0])
                    call = ("ingest_many", (events[i : i + n], now))
                    i += n
                got, want = (self._call(d, call) for d in (engine, oracle))
                assert [verdict_fields(v) for v in got] == [
                    verdict_fields(v) for v in want
                ], (seed, call)
                assert engine.stats() == oracle.stats(), (seed, call)
                paths.update(v.reason for v in got)
            stats = engine.stats()
            if stats["late_dropped"]:
                paths.add("late")
        assert paths == {"boundary", "flush", "eviction", "late"}

    @staticmethod
    def _call(detector, call):
        kind, arg = call
        if kind == "ingest":
            return detector.ingest(*arg)
        if kind == "flush":
            return detector.flush(arg)
        batch, now = arg
        return detector.ingest_many(batch, now=now)


@st.composite
def tied_replays(draw):
    """Per-stream transaction lists with tied starts, and a feed of them
    in start order where every group of equal starts comes in any order,
    cut into micro-batches of any sizes."""
    rng = draw(st.randoms(use_true_random=False))
    keys = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    hosts = [f"h{i}" for i in range(draw(st.integers(1, 5)))]
    events = tied_feed(rng, draw(st.integers(1, 80)), keys, hosts)
    rng.shuffle(events)
    events.sort(key=lambda e: e[1].start)  # stable: ties keep the shuffle
    streams = {}
    for key, t in events:
        streams.setdefault(key, []).append(t)
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=20))
    batches, lo = [], 0
    while lo < len(events):
        size = sizes[len(batches) % len(sizes)]
        batches.append(events[lo : lo + size])
        lo += size
    return streams, batches, draw(st.integers(1, 5))


class TestReplayProperties:
    """For any micro-batch split and any order of same-start events,
    replay equals the batch pipeline and the per-event oracle engine."""

    @settings(max_examples=60, deadline=None)
    @given(replay_case=tied_replays())
    def test_replay_equals_batch_and_oracle(self, replay_case, model):
        streams, batches, min_transactions = replay_case
        config = StreamConfig(min_transactions=min_transactions)
        engine = StreamDetector(model, config=config)
        oracle = OracleStreamDetector(model, config=config)
        verdicts = []
        for batch in batches + [None]:
            if batch is None:
                got, want = engine.flush(), oracle.flush()
            else:
                got, want = engine.ingest_many(batch), oracle.ingest_many(batch)
            assert [verdict_fields(v) for v in got] == [verdict_fields(v) for v in want]
            verdicts += got
        assert engine.stats()["late_dropped"] == 0
        check_batch_equivalence(streams, verdicts, model, config=config)
        assert {v.stream for v in verdicts} == set(streams)
