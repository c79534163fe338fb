"""Transparent-proxy monitor.

A Squid-style transparent proxy sits on the path, terminates nothing,
but reads the unencrypted TLS handshake headers of every connection and
exports one :class:`~repro.tlsproxy.records.TlsTransaction` per TLS
connection once the connection closes: start/end timestamps, uplink and
downlink wire bytes, and the SNI hostname.  This module turns simulated
connections into exactly that export.

Wire accounting: the proxy counts bytes on the wire, so each record
includes the TLS handshake flights and per-record framing overhead on
top of application payload.
"""

from __future__ import annotations

from typing import Iterable

from repro import telemetry
from repro.net.tcp import TcpConnection
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable

__all__ = ["TransparentProxy"]

#: TLS handshake wire bytes (ClientHello up; ServerHello+certs down).
HANDSHAKE_UP_BYTES = 600
HANDSHAKE_DOWN_BYTES = 3100
#: Multiplicative TLS record framing overhead on payload.
RECORD_OVERHEAD = 1.015


class TransparentProxy:
    """Observes TLS connections and exports transaction records.

    The proxy only learns a transaction's byte totals when the
    connection closes (the paper notes this makes the data unsuitable
    for real-time inference), so :meth:`export` requires every observed
    connection to be closed.
    """

    def __init__(self) -> None:
        self._observed: list[tuple[str, TcpConnection]] = []

    def observe(self, host: str, connection: TcpConnection) -> None:
        """Register a connection whose SNI resolved to ``host``."""
        self._observed.append((host, connection))

    def observe_all(self, connections: Iterable[tuple[str, TcpConnection]]) -> None:
        """Register many ``(host, connection)`` pairs."""
        for host, conn in connections:
            self.observe(host, conn)

    @property
    def n_observed(self) -> int:
        """Number of connections the proxy has seen."""
        return len(self._observed)

    def export(self) -> list[TlsTransaction]:
        """Export one TLS transaction per observed connection.

        Returns records sorted by start time.  Raises ``RuntimeError``
        if any connection is still open — the proxy cannot report a
        transaction before the connection terminates.
        """
        records = []
        for host, conn in self._observed:
            if conn.closed_at is None:
                raise RuntimeError(
                    "proxy can only export after all connections close"
                )
            records.append(connection_to_transaction(host, conn))
        records.sort(key=lambda r: (r.start, r.end))
        telemetry.count("proxy.transactions", len(records))
        return records

    def export_table(self) -> TransactionTable:
        """Batch export: the observed transactions as one columnar table.

        Same records as :meth:`export` (sorted by start time), delivered
        as a single-session :class:`~repro.tlsproxy.table.TransactionTable`
        ready for the vectorized feature path.
        """
        return TransactionTable.from_transactions(self.export())


def connection_to_transaction(host: str, connection: TcpConnection) -> TlsTransaction:
    """Convert one closed connection into its proxy-visible record."""
    if connection.closed_at is None:
        raise ValueError("connection must be closed")
    uplink = HANDSHAKE_UP_BYTES + round(connection.bytes_up * RECORD_OVERHEAD)
    downlink = HANDSHAKE_DOWN_BYTES + round(connection.bytes_down * RECORD_OVERHEAD)
    return TlsTransaction(
        start=connection.opened_at,
        end=connection.closed_at,
        uplink_bytes=uplink,
        downlink_bytes=downlink,
        sni=host,
    )
