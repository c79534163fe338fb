"""Packet-trace synthesis.

The paper's baseline (ML16, Dimopoulos et al.) and its overhead
comparison operate on packet traces captured with tcpdump.  Capturing
real packets is impossible offline, so this module synthesizes a
faithful packet-level view of a simulated session from the analytic
:class:`~repro.net.tcp.Transfer` records: per-connection handshakes,
MSS-sized data packets paced across each response interval, delayed
ACKs, request packets, and retransmissions at the exact counts the TCP
model produced.

Traces are represented as parallel numpy arrays rather than per-packet
objects: a session averages tens of thousands of packets (the paper
reports 27,689 for Svc1), and the corpus holds thousands of sessions,
so traces are synthesized on demand and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.net.tcp import Transfer

__all__ = ["PacketTrace", "synthesize_packet_trace"]

#: Wire bytes of TCP/IP(v4) + Ethernet framing per packet.
_HEADER_BYTES = 66
#: Pure-ACK wire size.
_ACK_BYTES = _HEADER_BYTES
#: Handshake packet wire sizes: SYN, SYN-ACK, ACK, then TLS hellos.
_TCP_HANDSHAKE_SIZES = (74, 74, 66)
_TLS_HANDSHAKE_DOWN = 3000  # certificate chain + server hello, split below
_TLS_HANDSHAKE_UP = 517  # client hello

#: Direction codes.
DOWNLINK = 1
UPLINK = -1


@dataclass(frozen=True)
class PacketTrace:
    """A packet trace as parallel arrays sorted by timestamp.

    Attributes
    ----------
    timestamps:
        Packet times in seconds (float64), non-decreasing.
    sizes:
        Wire sizes in bytes (int32).
    directions:
        ``+1`` for downlink (server→client), ``-1`` for uplink (int8).
    is_retransmit:
        Retransmission flags for downlink data packets (bool).
    connection_ids:
        Owning connection of each packet (int64).
    """

    timestamps: np.ndarray
    sizes: np.ndarray
    directions: np.ndarray
    is_retransmit: np.ndarray
    connection_ids: np.ndarray

    def __post_init__(self) -> None:
        n = self.timestamps.shape[0]
        for arr in (self.sizes, self.directions, self.is_retransmit, self.connection_ids):
            if arr.shape[0] != n:
                raise ValueError("all packet arrays must have equal length")

    @property
    def n_packets(self) -> int:
        """Number of packets in the trace."""
        return int(self.timestamps.shape[0])

    @property
    def duration(self) -> float:
        """Time between the first and last packet."""
        if self.n_packets == 0:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def downlink(self) -> np.ndarray:
        """Boolean mask of downlink packets."""
        return self.directions == DOWNLINK

    @property
    def uplink(self) -> np.ndarray:
        """Boolean mask of uplink packets."""
        return self.directions == UPLINK

    def bytes_down(self) -> int:
        """Total downlink wire bytes."""
        return int(self.sizes[self.downlink].sum())

    def bytes_up(self) -> int:
        """Total uplink wire bytes."""
        return int(self.sizes[self.uplink].sum())

    def retransmission_rate(self) -> float:
        """Fraction of downlink data packets that are retransmissions."""
        down = self.downlink & (self.sizes > _ACK_BYTES)
        total = int(down.sum())
        if total == 0:
            return 0.0
        return float(self.is_retransmit[down].sum()) / total

    def memory_records(self) -> int:
        """Records an ISP would have to store for this trace (packets)."""
        return self.n_packets


def _transfer_packets(
    transfer: Transfer, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Packets (times, sizes, directions, retx flags) for one transfer."""
    mss_wire = _HEADER_BYTES + 1460
    parts_t: list[np.ndarray] = []
    parts_s: list[np.ndarray] = []
    parts_d: list[np.ndarray] = []
    parts_r: list[np.ndarray] = []

    # Uplink request packets at the transfer start.
    n_req = max(1, transfer.n_packets_up - (transfer.n_packets_down // 2))
    req_times = transfer.start + np.arange(n_req) * 1e-4
    req_sizes = np.full(n_req, _HEADER_BYTES, dtype=np.int32)
    req_payload = transfer.request_bytes
    for i in range(n_req):
        chunk = min(req_payload, 1460)
        req_sizes[i] = _HEADER_BYTES + chunk
        req_payload -= chunk
    parts_t.append(req_times)
    parts_s.append(req_sizes)
    parts_d.append(np.full(n_req, UPLINK, dtype=np.int8))
    parts_r.append(np.zeros(n_req, dtype=bool))

    # Downlink data packets paced across the response interval.
    n_down = transfer.n_packets_down
    if n_down > 0:
        span = max(transfer.end - transfer.response_start, 1e-6)
        u = np.sort(rng.random(n_down))
        down_times = transfer.response_start + u * span
        down_sizes = np.full(n_down, mss_wire, dtype=np.int32)
        tail = transfer.response_bytes % 1460
        if tail:
            down_sizes[-1] = _HEADER_BYTES + tail
        retx = np.zeros(n_down, dtype=bool)
        if transfer.n_retransmits > 0:
            idx = rng.choice(n_down, size=min(transfer.n_retransmits, n_down), replace=False)
            retx[idx] = True
        parts_t.append(down_times)
        parts_s.append(down_sizes)
        parts_d.append(np.full(n_down, DOWNLINK, dtype=np.int8))
        parts_r.append(retx)

        # Delayed ACKs: one per two data packets, offset by ~RTT/2.
        n_acks = transfer.n_packets_up - n_req
        if n_acks > 0:
            ack_src = down_times[1::2][:n_acks]
            if ack_src.size < n_acks:
                pad = np.full(n_acks - ack_src.size, down_times[-1])
                ack_src = np.concatenate([ack_src, pad])
            ack_times = ack_src + transfer.rtt_s / 2.0
            parts_t.append(ack_times)
            parts_s.append(np.full(n_acks, _ACK_BYTES, dtype=np.int32))
            parts_d.append(np.full(n_acks, UPLINK, dtype=np.int8))
            parts_r.append(np.zeros(n_acks, dtype=bool))

    return (
        np.concatenate(parts_t),
        np.concatenate(parts_s),
        np.concatenate(parts_d),
        np.concatenate(parts_r),
    )


def _handshake_packets(
    conn_id: int, opened_at: float, rtt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """TCP + TLS handshake packets for one connection."""
    times = [opened_at, opened_at + rtt / 2.0, opened_at + rtt]
    sizes = list(_TCP_HANDSHAKE_SIZES)
    dirs = [UPLINK, DOWNLINK, UPLINK]
    # TLS ClientHello, then ServerHello + certificate flight.
    times.append(opened_at + rtt)
    sizes.append(_HEADER_BYTES + _TLS_HANDSHAKE_UP)
    dirs.append(UPLINK)
    remaining = _TLS_HANDSHAKE_DOWN
    t = opened_at + 1.5 * rtt
    while remaining > 0:
        chunk = min(remaining, 1460)
        times.append(t)
        sizes.append(_HEADER_BYTES + chunk)
        dirs.append(DOWNLINK)
        remaining -= chunk
        t += 1e-4
    n = len(times)
    return (
        np.asarray(times, dtype=np.float64),
        np.asarray(sizes, dtype=np.int32),
        np.asarray(dirs, dtype=np.int8),
        np.zeros(n, dtype=bool),
        np.full(n, conn_id, dtype=np.int64),
    )


def synthesize_packet_trace(
    transfers: Iterable[Transfer],
    connections: Sequence[tuple[int, float, float]] = (),
    rng: np.random.Generator | None = None,
) -> PacketTrace:
    """Build the packet-level view of a set of transfers.

    Parameters
    ----------
    transfers:
        Completed transfers, in any order.
    connections:
        ``(connection_id, opened_at, rtt_s)`` triples for each
        connection whose handshake should appear in the trace.
    rng:
        Randomness for packet pacing within transfers; a fixed default
        seed is used when omitted so traces are reproducible.

    Returns
    -------
    PacketTrace
        All packets sorted by timestamp.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    parts_t: list[np.ndarray] = []
    parts_s: list[np.ndarray] = []
    parts_d: list[np.ndarray] = []
    parts_r: list[np.ndarray] = []
    parts_c: list[np.ndarray] = []

    for conn_id, opened_at, rtt in connections:
        t, s, d, r, c = _handshake_packets(conn_id, opened_at, rtt)
        parts_t.append(t)
        parts_s.append(s)
        parts_d.append(d)
        parts_r.append(r)
        parts_c.append(c)

    for transfer in transfers:
        t, s, d, r = _transfer_packets(transfer, rng)
        parts_t.append(t)
        parts_s.append(s)
        parts_d.append(d)
        parts_r.append(r)
        parts_c.append(np.full(t.shape[0], transfer.connection_id, dtype=np.int64))

    if not parts_t:
        empty_f = np.empty(0, dtype=np.float64)
        return PacketTrace(
            timestamps=empty_f,
            sizes=np.empty(0, dtype=np.int32),
            directions=np.empty(0, dtype=np.int8),
            is_retransmit=np.empty(0, dtype=bool),
            connection_ids=np.empty(0, dtype=np.int64),
        )

    times = np.concatenate(parts_t)
    order = np.argsort(times, kind="stable")
    return PacketTrace(
        timestamps=times[order],
        sizes=np.concatenate(parts_s)[order],
        directions=np.concatenate(parts_d)[order],
        is_retransmit=np.concatenate(parts_r)[order],
        connection_ids=np.concatenate(parts_c)[order],
    )
