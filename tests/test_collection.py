"""Tests for repro.collection (harness + dataset)."""

import dataclasses

import numpy as np
import pytest

from repro.collection.dataset import Dataset
from repro.collection.harness import (
    CollectionConfig,
    collect_corpus,
    collect_session,
    default_tcp_params,
)
from repro.has.services import get_service
from repro.net.bandwidth import TraceFamily
from repro.tlsproxy.records import ResourceType


@pytest.fixture(scope="module")
def small_corpus():
    return collect_corpus("svc1", 30, seed=5)


class TestCollectionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CollectionConfig(min_watch_s=0.0)
        with pytest.raises(ValueError):
            CollectionConfig(min_watch_s=100.0, max_watch_s=50.0)
        with pytest.raises(ValueError):
            CollectionConfig(trace_weights={})
        with pytest.raises(ValueError):
            CollectionConfig(trace_weights={TraceFamily.FCC: -1.0})

    def test_watch_duration_in_range(self):
        config = CollectionConfig()
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = config.sample_watch_duration(rng)
            assert config.min_watch_s <= w <= config.max_watch_s

    def test_sample_trace_respects_weights(self):
        config = CollectionConfig(trace_weights={TraceFamily.LTE: 1.0})
        rng = np.random.default_rng(0)
        trace = config.sample_trace(rng)
        assert trace.family is TraceFamily.LTE


class TestDefaultTcpParams:
    def test_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = default_tcp_params(rng)
            assert 0.01 <= p.rtt_s <= 0.4
            assert 0.0 < p.loss_rate <= 0.02


class TestCollectSession:
    def test_returns_full_trace(self):
        profile = get_service("svc2")
        video = profile.make_catalog()[0]
        trace = collect_session(profile, video, np.random.default_rng(1))
        assert trace.service_name == "svc2"
        assert trace.tls_transactions


class TestCollectCorpus:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            collect_corpus("svc1", -1)

    def test_corpus_shape(self, small_corpus):
        assert len(small_corpus) == 30
        assert small_corpus.service == "svc1"
        assert all(s.service == "svc1" for s in small_corpus)

    def test_labels_and_distribution(self, small_corpus):
        y = small_corpus.labels("combined")
        assert y.shape == (30,)
        assert ((0 <= y) & (y <= 2)).all()
        dist = small_corpus.label_distribution("combined")
        assert dist.sum() == pytest.approx(1.0)

    def test_deterministic(self):
        a = collect_corpus("svc3", 5, seed=9)
        b = collect_corpus("svc3", 5, seed=9)
        for ra, rb in zip(a, b):
            assert ra.session_end == rb.session_end
            assert ra.labels == rb.labels

    def test_accepts_profile_object(self):
        ds = collect_corpus(get_service("svc3"), 2, seed=1)
        assert ds.service == "svc3"

    def test_in_memory_chunks_are_held_blocks(self):
        """Each worker returns its chunk as one held block: the blocks
        follow the worker count, the sessions do not."""
        one = collect_corpus("svc3", 5, seed=9, n_jobs=1)
        two = collect_corpus("svc3", 5, seed=9, n_jobs=2)
        assert [e.n_sessions for e in one.entries] == [5]
        assert [e.n_sessions for e in two.entries] == [2, 3]
        assert two.root is None and two.manifest_digest is None
        assert one.tls_table().sni == two.tls_table().sni
        np.testing.assert_array_equal(one.labels("combined"), two.labels("combined"))
        for ra, rb in zip(one, two):
            assert ra.tls_transactions == rb.tls_transactions
            assert ra.labels == rb.labels
            np.testing.assert_array_equal(ra.transfers, rb.transfers)
        # Held members are shared by every read, across the pool too.
        for corpus in (one, two):
            transfers, _ = next(corpus.transfer_blocks())
            with pytest.raises(ValueError, match="read-only"):
                transfers[0, 0] = -1.0


class TestSessionRecord:
    def test_counts(self, small_corpus):
        record = small_corpus[0]
        assert record.n_http_transactions == record.http["start"].shape[0]
        assert record.n_tls_transactions == len(record.tls_transactions)
        assert record.n_packets > record.n_http_transactions

    def test_n_packets_matches_synthesized_trace(self, small_corpus):
        record = small_corpus[0]
        trace = record.packet_trace()
        # Stored estimate counts 7 handshake packets per connection;
        # synthesis emits a certificate flight of ~3 packets, so the
        # two agree to within a few packets per connection.
        assert trace.n_packets == pytest.approx(
            record.n_packets, abs=3 * record.connections.shape[0]
        )

    def test_resource_mask(self, small_corpus):
        record = small_corpus[0]
        mask = record.resource_mask(ResourceType.VIDEO_SEGMENT)
        assert mask.any()
        assert mask.shape[0] == record.n_http_transactions

    def test_iter_transfers_roundtrip(self, small_corpus):
        record = small_corpus[0]
        transfers = list(record.iter_transfers())
        assert len(transfers) == record.transfers.shape[0]
        assert transfers[0].start == pytest.approx(record.transfers[0, 1])

    def test_session_hosts_recorded(self, small_corpus):
        record = small_corpus[0]
        assert any("cdn" in h for h in record.session_hosts)


class TestDatasetSerialization:
    def test_roundtrip(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.shards"
        small_corpus.save(path)
        loaded = Dataset.load(path)
        self._assert_equal(small_corpus, loaded)

    def test_roundtrip_across_shards(self, small_corpus, tmp_path):
        # 30 sessions in shards of 7: four full shards and a short last one.
        saved = small_corpus.save(tmp_path / "corpus.shards", shard_size=7)
        assert saved.n_shards == 5
        self._assert_equal(small_corpus, Dataset.load(saved.root))

    @staticmethod
    def _assert_equal(a: Dataset, b: Dataset):
        assert a.service == b.service
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.labels == rb.labels
            assert ra.tls_transactions == rb.tls_transactions
            np.testing.assert_allclose(ra.transfers, rb.transfers)
            np.testing.assert_array_equal(
                ra.http["resource_code"], rb.http["resource_code"]
            )

    # A block stores service, scenario and workload once, so a corpus
    # built from records of mixed values would silently relabel some.
    def test_constructor_enforces_service(self, small_corpus):
        records = small_corpus.sessions[:2]
        with pytest.raises(ValueError, match="record 0 has service 'svc1'"):
            Dataset(service="svc2", sessions=records[:1])
        mixed = [records[0], dataclasses.replace(records[1], service="svc2")]
        with pytest.raises(ValueError, match="record 1 has service 'svc2'"):
            Dataset(service="svc1", sessions=mixed)

    def test_constructor_enforces_scenario(self, small_corpus):
        records = small_corpus.sessions[:3]
        records[2] = dataclasses.replace(records[2], scenario="hostile")
        with pytest.raises(ValueError, match="record 2 has scenario 'hostile'"):
            Dataset(service="svc1", sessions=records)

    def test_constructor_enforces_workload(self, small_corpus):
        records = small_corpus.sessions[:2]
        records[0] = dataclasses.replace(records[0], workload="live")
        with pytest.raises(ValueError, match="record 1 has workload 'has'"):
            Dataset(service="svc1", sessions=records)

    def test_empty_distribution(self):
        ds = Dataset(service="svc1")
        np.testing.assert_array_equal(ds.label_distribution("combined"), np.zeros(3))
