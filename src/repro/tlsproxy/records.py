"""Transaction record types.

Two granularities of the same traffic:

* :class:`HttpTransaction` — one request/response exchange (a video
  segment, a manifest, a beacon).  This is what packet-level systems
  reconstruct and what Figure 2 of the paper contrasts against TLS
  transactions.
* :class:`TlsTransaction` — what the transparent proxy reports: one
  record per TLS *connection*, spanning every HTTP transaction that
  connection carried.  Only start/end time, byte counts, and the SNI
  hostname are visible; this is the paper's coarse-grained input.
"""

from __future__ import annotations

import enum
from math import isfinite
from typing import Sequence

import numpy as np

from repro.record import record

__all__ = [
    "ResourceType",
    "HttpTransaction",
    "TlsTransaction",
    "transactions_to_columns",
]


class ResourceType(str, enum.Enum):
    """What an HTTP transaction fetched (application-side knowledge).

    The proxy never sees this; it exists so the simulator and the
    packet-trace baseline have ground truth to validate against.
    """

    MANIFEST = "manifest"
    VIDEO_SEGMENT = "video_segment"
    AUDIO_SEGMENT = "audio_segment"
    LICENSE = "license"
    PLAYER_PAGE = "player_page"
    BEACON = "beacon"
    THUMBNAIL = "thumbnail"


@record
class HttpTransaction:
    """One HTTP request/response exchange.

    Parameters
    ----------
    start, end:
        Wall-clock seconds bracketing the exchange.
    request_bytes, response_bytes:
        Application payload bytes in each direction.
    host:
        Server hostname the request went to.
    resource_type:
        What was fetched (ground truth, not visible on the wire).
    quality_index:
        For segment fetches, the quality-ladder index requested
        (``-1`` for non-segment resources).
    """

    start: float
    end: float
    request_bytes: int
    response_bytes: int
    host: str
    resource_type: ResourceType
    quality_index: int = -1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("transaction ends before it starts")
        if self.request_bytes < 0 or self.response_bytes < 0:
            raise ValueError("byte counts must be non-negative")

    @property
    def duration(self) -> float:
        """Wall-clock duration in seconds."""
        return self.end - self.start


_NUMERIC_FIELDS = ("start", "end", "uplink_bytes", "downlink_bytes")


@record
class TlsTransaction:
    """One TLS transaction as exported by the transparent proxy.

    This is the *only* record the paper's QoE estimator consumes:
    timing, two byte counters, and the SNI hostname.

    Parameters
    ----------
    start, end:
        Connection open and close times (seconds).
    uplink_bytes, downlink_bytes:
        Wire bytes in each direction, including TLS handshake and
        record overhead.
    sni:
        Server Name Indication hostname from the ClientHello.
    """

    start: float
    end: float
    uplink_bytes: int
    downlink_bytes: int
    sni: str

    def __post_init__(self) -> None:
        # NaN compares false against everything, so it would slip past
        # the ordering checks below and into every feature computed
        # from this record.
        if not (
            isfinite(self.start)
            and isfinite(self.end)
            and isfinite(self.uplink_bytes)
            and isfinite(self.downlink_bytes)
        ):
            name = next(n for n in _NUMERIC_FIELDS if not isfinite(getattr(self, n)))
            raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.end < self.start:
            raise ValueError("transaction ends before it starts")
        if self.uplink_bytes < 0 or self.downlink_bytes < 0:
            raise ValueError("byte counts must be non-negative")
        if not self.sni:
            raise ValueError("sni must be non-empty")

    @property
    def duration(self) -> float:
        """Connection lifetime in seconds."""
        return self.end - self.start

    @property
    def data_rate(self) -> float:
        """Transaction data rate (TDR, paper §3): downlink bytes/second.

        Not the same as network throughput — a connection may sit idle
        between requests — but an indicator of available bandwidth.
        """
        if self.duration <= 0:
            return float(self.downlink_bytes)
        return self.downlink_bytes / self.duration

    @property
    def d2u_ratio(self) -> float:
        """Downlink-to-uplink byte ratio (D2U, paper §3)."""
        if self.uplink_bytes == 0:
            return float(self.downlink_bytes)
        return self.downlink_bytes / self.uplink_bytes

    def shifted(self, offset: float) -> "TlsTransaction":
        """A copy of this transaction translated in time by ``offset``."""
        return TlsTransaction(
            start=self.start + offset,
            end=self.end + offset,
            uplink_bytes=self.uplink_bytes,
            downlink_bytes=self.downlink_bytes,
            sni=self.sni,
        )


def transactions_to_columns(
    transactions: Sequence[TlsTransaction],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
    """Batch export: record objects -> ``(start, end, uplink, downlink, sni)``.

    The four numeric columns come back as contiguous float64 arrays;
    this is the single conversion point between row objects and the
    columnar data plane (:mod:`repro.tlsproxy.table`).
    """
    return (
        np.array([t.start for t in transactions], dtype=np.float64),
        np.array([t.end for t in transactions], dtype=np.float64),
        np.array([t.uplink_bytes for t in transactions], dtype=np.float64),
        np.array([t.downlink_bytes for t in transactions], dtype=np.float64),
        tuple(t.sni for t in transactions),
    )
