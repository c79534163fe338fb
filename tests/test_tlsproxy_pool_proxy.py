"""Tests for repro.tlsproxy.connection and repro.tlsproxy.proxy."""

import numpy as np
import pytest

from repro.net.bandwidth import BandwidthTrace, TraceFamily
from repro.net.link import Link
from repro.net.tcp import TcpParams
from repro.tlsproxy.connection import TlsConnectionPool
from repro.tlsproxy.proxy import (
    HANDSHAKE_DOWN_BYTES,
    HANDSHAKE_UP_BYTES,
    TransparentProxy,
    connection_to_transaction,
)
from repro.tlsproxy.records import ResourceType


def make_pool(idle_timeout=15.0, max_requests=16, bps=40e6, seed=0):
    trace = BandwidthTrace(
        times=np.array([0.0]),
        bandwidth_bps=np.array([bps]),
        duration=3600.0,
        family=TraceFamily.FCC,
    )
    link = Link(trace=trace)
    return TlsConnectionPool(
        link,
        np.random.default_rng(seed),
        lambda rng: TcpParams(rtt_s=0.04, loss_rate=0.0),
        idle_timeout=idle_timeout,
        max_requests_per_connection=max_requests,
    )


class TestTlsConnectionPool:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_pool(idle_timeout=0.0)
        with pytest.raises(ValueError):
            make_pool(max_requests=0)

    def test_reuses_connection_for_same_host(self):
        pool = make_pool()
        r1 = pool.fetch(0.0, "h.example", 400, 10_000, ResourceType.VIDEO_SEGMENT)
        r2 = pool.fetch(r1.http.end + 1.0, "h.example", 400, 10_000, ResourceType.VIDEO_SEGMENT)
        assert r1.connection is r2.connection
        assert len(pool.all_connections) == 1

    def test_distinct_hosts_get_distinct_connections(self):
        pool = make_pool()
        r1 = pool.fetch(0.0, "a.example", 400, 1000, ResourceType.MANIFEST)
        r2 = pool.fetch(0.0, "b.example", 400, 1000, ResourceType.BEACON)
        assert r1.connection is not r2.connection

    def test_idle_timeout_forces_new_connection(self):
        pool = make_pool(idle_timeout=5.0)
        r1 = pool.fetch(0.0, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        r2 = pool.fetch(r1.http.end + 30.0, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        assert r1.connection is not r2.connection
        assert r1.connection.closed_at == pytest.approx(
            r1.connection.last_activity + 5.0
        )

    def test_request_budget_retires_connection(self):
        pool = make_pool(max_requests=3)
        t = 0.0
        results = []
        for _ in range(4):
            r = pool.fetch(t, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
            results.append(r)
            t = r.http.end + 0.5
        first_conn = results[0].connection
        assert all(r.connection is first_conn for r in results[:3])
        assert results[3].connection is not first_conn
        assert first_conn.closed_at == results[2].http.end

    def test_http_transaction_fields(self):
        pool = make_pool()
        r = pool.fetch(0.0, "h.example", 420, 9000, ResourceType.AUDIO_SEGMENT, quality_index=2)
        assert r.http.host == "h.example"
        assert r.http.request_bytes == 420
        assert r.http.response_bytes == 9000
        assert r.http.resource_type is ResourceType.AUDIO_SEGMENT
        assert r.http.quality_index == 2

    def test_shutdown_lets_connections_linger(self):
        pool = make_pool(idle_timeout=10.0)
        r = pool.fetch(0.0, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        pool.shutdown(at=r.http.end)
        assert r.connection.closed_at == pytest.approx(r.http.end + 10.0)
        assert pool.open_connections == []

    def test_fetch_after_shutdown_opens_fresh_connection(self):
        pool = make_pool()
        r1 = pool.fetch(0.0, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        pool.shutdown(at=r1.http.end)
        r2 = pool.fetch(r1.http.end + 1.0, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        assert r2.connection is not r1.connection


class TestTransparentProxy:
    def test_export_requires_closed_connections(self):
        pool = make_pool()
        pool.fetch(0.0, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        proxy = TransparentProxy()
        proxy.observe_all(pool.all_connections)
        with pytest.raises(RuntimeError):
            proxy.export()

    def test_export_counts_and_contents(self):
        pool = make_pool()
        r1 = pool.fetch(0.0, "a.example", 400, 50_000, ResourceType.VIDEO_SEGMENT)
        r2 = pool.fetch(0.0, "b.example", 300, 2_000, ResourceType.MANIFEST)
        pool.shutdown(at=max(r1.http.end, r2.http.end))
        proxy = TransparentProxy()
        proxy.observe_all(pool.all_connections)
        records = proxy.export()
        assert len(records) == 2
        assert proxy.n_observed == 2
        snis = {r.sni for r in records}
        assert snis == {"a.example", "b.example"}
        for rec in records:
            assert rec.uplink_bytes > HANDSHAKE_UP_BYTES
            assert rec.downlink_bytes > HANDSHAKE_DOWN_BYTES

    def test_records_sorted_by_start(self):
        pool = make_pool()
        r1 = pool.fetch(5.0, "a.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        r2 = pool.fetch(0.0, "b.example", 400, 1000, ResourceType.MANIFEST)
        pool.shutdown(at=max(r1.http.end, r2.http.end))
        proxy = TransparentProxy()
        proxy.observe_all(pool.all_connections)
        records = proxy.export()
        assert records[0].sni == "b.example"

    def test_transaction_spans_all_transfers(self):
        pool = make_pool(idle_timeout=8.0)
        r1 = pool.fetch(0.0, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        r2 = pool.fetch(r1.http.end + 2.0, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        pool.shutdown(at=r2.http.end)
        rec = connection_to_transaction("h.example", r1.connection)
        assert rec.start == r1.connection.opened_at
        assert rec.end == pytest.approx(r2.http.end + 8.0)
        # One TLS transaction covers two HTTP transactions (Figure 2).
        payload_down = 2 * 1000
        assert rec.downlink_bytes >= HANDSHAKE_DOWN_BYTES + payload_down

    def test_connection_to_transaction_requires_closed(self):
        pool = make_pool()
        r = pool.fetch(0.0, "h.example", 400, 1000, ResourceType.VIDEO_SEGMENT)
        with pytest.raises(ValueError):
            connection_to_transaction("h.example", r.connection)
