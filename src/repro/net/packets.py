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
so traces are synthesized on demand and never stored.  Synthesis works
on a session's stored transfer and connection rows
(:func:`synthesize_from_rows`) with whole-session array ops; the
per-transfer loop it replaced is the oracle in ``tests/packet_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.net.tcp import Transfer

__all__ = [
    "TRANSFER_COLUMNS",
    "PacketTrace",
    "synthesize_from_rows",
    "synthesize_packet_trace",
    "transfer_rows",
]

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
        # Masked products, not a masked copy: the sum is the same integer.
        return int((self.sizes * self.downlink).sum())

    def bytes_up(self) -> int:
        """Total uplink wire bytes."""
        return int((self.sizes * self.uplink).sum())

    def retransmission_rate(self) -> float:
        """Fraction of downlink data packets that are retransmissions."""
        down = self.downlink & (self.sizes > _ACK_BYTES)
        total = np.count_nonzero(down)
        if total == 0:
            return 0.0
        return np.count_nonzero(self.is_retransmit & down) / total

    def memory_records(self) -> int:
        """Records an ISP would have to store for this trace (packets)."""
        return self.n_packets


#: Columns of a transfer row (:func:`transfer_rows`), in order.
TRANSFER_COLUMNS = (
    "connection_id",
    "start",
    "response_start",
    "end",
    "request_bytes",
    "response_bytes",
    "n_packets_down",
    "n_packets_up",
    "n_retransmits",
    "rtt_s",
)

#: The server's TLS flight, cut into MSS-sized packets.
_FLIGHT_CHUNKS = tuple(
    min(_TLS_HANDSHAKE_DOWN - sent, 1460) for sent in range(0, _TLS_HANDSHAKE_DOWN, 1460)
)
#: One connection's handshake: SYN, SYN-ACK, ACK, ClientHello, then
#: the server flight.
_HANDSHAKE_SIZES = np.array(
    [*_TCP_HANDSHAKE_SIZES, _HEADER_BYTES + _TLS_HANDSHAKE_UP]
    + [_HEADER_BYTES + chunk for chunk in _FLIGHT_CHUNKS],
    dtype=np.int32,
)
_HANDSHAKE_DIRECTIONS = np.array(
    [UPLINK, DOWNLINK, UPLINK, UPLINK] + [DOWNLINK] * len(_FLIGHT_CHUNKS), dtype=np.int8
)


def transfer_rows(transfers: Iterable[Transfer]) -> np.ndarray:
    """Transfers as a ``(n, 10)`` float array of :data:`TRANSFER_COLUMNS`."""
    return np.array(
        [
            (
                t.connection_id,
                t.start,
                t.response_start,
                t.end,
                t.request_bytes,
                t.response_bytes,
                t.n_packets_down,
                t.n_packets_up,
                t.n_retransmits,
                t.rtt_s,
            )
            for t in transfers
        ],
        dtype=np.float64,
    ).reshape(-1, len(TRANSFER_COLUMNS))


def _within(counts: np.ndarray) -> np.ndarray:
    """Each element's index within its run, for runs of ``counts``."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts, counts)


def _pacing(
    n_down: np.ndarray, n_retx: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Every transfer's sorted pacing fractions and retransmit flags.

    Transfer by transfer, pacing draws ``rng.random(n_down)`` and a
    transfer with retransmissions then draws their data packets with
    ``rng.choice(n_down, replace=False)``.  A generator's
    ``random(a)`` followed by ``random(b)`` yields the doubles of
    ``random(a + b)``, so each run of pacing draws up to a choice is
    one call, and the draws match the transfer-at-a-time order.
    """
    offsets = np.concatenate(([0], np.cumsum(n_down)))
    u = np.empty(int(offsets[-1]))
    retx = np.zeros(u.shape[0], dtype=bool)
    drawn = 0
    for k in np.flatnonzero(n_retx > 0).tolist():
        lo, hi = int(offsets[k]), int(offsets[k + 1])
        rng.random(out=u[drawn:hi])
        drawn = hi
        n = hi - lo
        retx[lo + rng.choice(n, size=min(int(n_retx[k]), n), replace=False)] = True
    rng.random(out=u[drawn:])
    for k in np.flatnonzero(n_down > 1).tolist():
        u[offsets[k]:offsets[k + 1]].sort()
    return u, retx


def synthesize_from_rows(
    transfers: np.ndarray, connections: np.ndarray, rng: np.random.Generator
) -> PacketTrace:
    """One session's packet trace from its transfer and connection rows.

    ``transfers`` holds :data:`TRANSFER_COLUMNS` rows, ``connections``
    ``(connection_id, opened_at, rtt_s)`` rows.  Each connection opens
    with a TCP + TLS handshake; each transfer sends its request packets
    from its start, ``n_packets_down`` MSS-sized data packets paced
    randomly across the response interval (``n_retransmits`` of them
    flagged), and one delayed ACK per two data packets.  The packets
    are laid out handshakes first, then transfer by transfer (requests,
    data, ACKs), and sorted by time, stable.
    """
    transfers = np.asarray(transfers, dtype=np.float64).reshape(-1, len(TRANSFER_COLUMNS))
    connections = np.asarray(connections, dtype=np.float64).reshape(-1, 3)
    cols = transfers.T
    counts = cols[[0, 4, 5, 6, 7, 8]].astype(np.int64)
    conn_id, req_bytes, resp_bytes, n_down, n_up, n_retx = counts
    start, resp_start, end, rtt = cols[1], cols[2], cols[3], cols[9]

    # Requests take the uplink packets the ACKs (one per two data
    # packets) leave, at least one; so a transfer never has more ACKs
    # than odd-indexed data packets.
    n_req = np.maximum(1, n_up - n_down // 2)
    has_down = n_down > 0
    n_data = np.where(has_down, n_down, 0)
    n_ack = np.where(has_down, np.maximum(n_up - n_req, 0), 0)

    # Request packets 0.1 ms apart, carrying the request bytes an MSS
    # at a time.
    step = _within(n_req)
    req_times = np.repeat(start, n_req) + step * 1e-4
    req_sizes = _HEADER_BYTES + np.clip(np.repeat(req_bytes, n_req) - 1460 * step, 0, 1460)

    u, retx = _pacing(n_data, np.where(has_down, n_retx, 0), rng)
    span = np.maximum(end - resp_start, 1e-6)
    down_times = np.repeat(resp_start, n_data) + u * np.repeat(span, n_data)
    down_sizes = np.full(u.shape[0], _HEADER_BYTES + 1460, dtype=np.int32)
    data_end = np.cumsum(n_data)
    tail = resp_bytes % 1460
    last = has_down & (tail != 0)
    down_sizes[data_end[last] - 1] = _HEADER_BYTES + tail[last]

    # Each ACK leaves half an RTT after an odd-indexed data packet.
    ack_src = np.repeat(data_end - n_data + 1, n_ack) + 2 * _within(n_ack)
    ack_times = down_times[ack_src] + np.repeat(rtt / 2.0, n_ack)

    # Handshakes first, then each transfer's requests, data and ACKs.
    n_hs = len(_HANDSHAKE_SIZES)
    kind = np.repeat(
        np.tile(np.arange(3, dtype=np.int8), n_req.shape[0]),
        np.column_stack([n_req, n_data, n_ack]).ravel(),
    )
    n = n_hs * connections.shape[0] + kind.shape[0]
    times = np.empty(n)
    sizes = np.full(n, _ACK_BYTES, dtype=np.int32)
    directions = np.full(n, UPLINK, dtype=np.int8)
    is_retransmit = np.zeros(n, dtype=bool)
    connection_ids = np.empty(n, dtype=np.int64)

    opened, hs_rtt = connections[:, 1], connections[:, 2]
    hs = times[: n_hs * connections.shape[0]].reshape(-1, n_hs)
    hs[:, 0] = opened
    hs[:, 1] = opened + hs_rtt / 2.0
    hs[:, 2] = opened + hs_rtt
    hs[:, 3] = opened + hs_rtt
    t = opened + 1.5 * hs_rtt
    for j in range(4, n_hs):
        hs[:, j] = t
        t = t + 1e-4
    sizes[: hs.size] = np.tile(_HANDSHAKE_SIZES, connections.shape[0])
    directions[: hs.size] = np.tile(_HANDSHAKE_DIRECTIONS, connections.shape[0])
    connection_ids[: hs.size] = np.repeat(connections[:, 0].astype(np.int64), n_hs)

    body = slice(hs.size, n)
    is_req, is_data = kind == 0, kind == 1
    times[body][is_req] = req_times
    times[body][is_data] = down_times
    times[body][kind == 2] = ack_times
    sizes[body][is_req] = req_sizes
    sizes[body][is_data] = down_sizes
    directions[body][is_data] = DOWNLINK
    is_retransmit[body][is_data] = retx
    connection_ids[body] = np.repeat(conn_id, n_req + n_data + n_ack)

    order = np.argsort(times, kind="stable")
    return PacketTrace(
        timestamps=times[order],
        sizes=sizes[order],
        directions=directions[order],
        is_retransmit=is_retransmit[order],
        connection_ids=connection_ids[order],
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
        All packets sorted by timestamp (:func:`synthesize_from_rows`
        over the transfers' and connections' rows).
    """
    return synthesize_from_rows(
        transfer_rows(transfers),
        np.array(list(connections), dtype=np.float64).reshape(-1, 3),
        rng if rng is not None else np.random.default_rng(0),
    )
