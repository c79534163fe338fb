"""The per-transfer packet synthesizer and per-connection ML16
featurizer: golden oracle for the row-and-column ones.

:func:`repro.net.packets.synthesize_from_rows` builds a session's packet
trace from its transfer and connection rows with whole-session array
ops, and :func:`repro.features.packet_features.extract_ml16_features`
featurizes it after one stable sort by connection.  This module keeps
the code they replaced as the reference:

* :func:`synthesize_packet_trace` loops over connections
  (:func:`_handshake_packets`) and transfers (:func:`_transfer_packets`),
  each transfer drawing its own ``rng.random`` pacing and
  ``rng.choice`` retransmissions, then sorts the concatenation once by
  time (stable);
* :func:`reconstruct_segments` and :func:`_rtt_estimates` build one
  boolean mask over every packet per connection;
* :func:`extract_ml16_features` is the per-session ML16 vector over
  them, and :func:`reference_ml16_matrix` stacks it over a corpus's
  records, which ``extract_ml16_matrix`` must equal byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.features.packet_features import ML16_FEATURE_NAMES
from repro.features.segments import (
    _MIN_SEGMENT_BYTES,
    _REQUEST_WIRE_BYTES,
    ReconstructedSegments,
)
from repro.net.packets import (
    _ACK_BYTES,
    _HEADER_BYTES,
    _TCP_HANDSHAKE_SIZES,
    _TLS_HANDSHAKE_DOWN,
    _TLS_HANDSHAKE_UP,
    DOWNLINK,
    UPLINK,
    PacketTrace,
)
from repro.net.tcp import Transfer

__all__ = [
    "as_objects",
    "extract_ml16_features",
    "reconstruct_segments",
    "reference_ml16_matrix",
    "session_trace",
    "synthesize_packet_trace",
]


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
    """The packet-level view of a set of transfers, one transfer at a
    time: handshakes first, then each transfer's requests, data and
    ACKs, all sorted by timestamp (stable)."""
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


def reconstruct_segments(
    trace: PacketTrace,
    min_request_bytes: int = _REQUEST_WIRE_BYTES,
    min_segment_bytes: int = _MIN_SEGMENT_BYTES,
) -> ReconstructedSegments:
    """Recover (start, size, duration) of media segments from packets,
    one connection at a time: request packets delimit responses; each
    response's bytes and span are accumulated from the downlink data
    packets between two requests."""
    empty = np.empty(0)
    if trace.n_packets == 0:
        return ReconstructedSegments(empty, empty, empty)

    starts: list[float] = []
    sizes: list[float] = []
    durations: list[float] = []
    for conn in np.unique(trace.connection_ids):
        rows = trace.connection_ids == conn
        ts = trace.timestamps[rows]
        sz = trace.sizes[rows]
        down = trace.directions[rows] == 1
        is_request = (~down) & (sz >= min_request_bytes)
        req_times = ts[is_request]
        if req_times.size == 0:
            continue
        # Responses run from one request to the next (or trace end).
        bounds = np.append(req_times, np.inf)
        down_ts = ts[down & (sz > 66)]
        down_sz = sz[down & (sz > 66)].astype(np.float64)
        if down_ts.size == 0:
            continue
        which = np.searchsorted(bounds, down_ts, side="right") - 1
        valid = which >= 0
        n_req = req_times.size
        byte_sums = np.zeros(n_req)
        np.add.at(byte_sums, which[valid], down_sz[valid])
        first_ts = np.full(n_req, np.inf)
        np.minimum.at(first_ts, which[valid], down_ts[valid])
        last_ts = np.full(n_req, -np.inf)
        np.maximum.at(last_ts, which[valid], down_ts[valid])
        keep = byte_sums >= min_segment_bytes
        starts.extend(req_times[keep].tolist())
        sizes.extend(byte_sums[keep].tolist())
        durations.extend(
            np.maximum(last_ts[keep] - first_ts[keep], 1e-6).tolist()
        )

    order = np.argsort(starts) if starts else np.empty(0, dtype=np.int64)
    return ReconstructedSegments(
        start_times=np.asarray(starts)[order],
        sizes_bytes=np.asarray(sizes)[order],
        durations=np.asarray(durations)[order],
    )


def _stats_or_zero(values: np.ndarray, funcs) -> list[float]:
    if values.size == 0:
        return [0.0] * len(funcs)
    return [float(f(values)) for f in funcs]


def _rtt_estimates(trace: PacketTrace) -> np.ndarray:
    """Per-connection RTT from the SYN → SYN-ACK gap."""
    estimates = []
    for conn in np.unique(trace.connection_ids):
        rows = trace.connection_ids == conn
        ts = trace.timestamps[rows]
        dirs = trace.directions[rows]
        up_first = ts[dirs == -1]
        down_first = ts[dirs == 1]
        if up_first.size and down_first.size:
            gap = float(down_first.min() - up_first.min())
            if gap > 0:
                estimates.append(2.0 * gap)
    return np.asarray(estimates)


def extract_ml16_features(trace: PacketTrace) -> np.ndarray:
    """The ML16 feature vector of one session's packet trace."""
    if trace.n_packets == 0:
        raise ValueError("cannot extract features from an empty packet trace")
    segments = reconstruct_segments(trace)
    sizes = segments.sizes_bytes
    tputs = segments.throughputs()
    iats = segments.inter_arrivals()
    rtts = _rtt_estimates(trace)

    duration = max(trace.duration, 1e-9)
    bytes_down = float(trace.bytes_down())
    bytes_up = float(trace.bytes_up())
    retx = float(trace.is_retransmit.sum())

    features = [
        float(segments.n_segments),
        *_stats_or_zero(sizes, (np.mean, np.median, np.std, np.min, np.max)),
        *_stats_or_zero(segments.durations, (np.mean, np.max)),
        *_stats_or_zero(tputs, (np.mean, np.median, np.min)),
        *_stats_or_zero(iats, (np.median, np.max)),
        retx,
        float(trace.retransmission_rate()),
        *_stats_or_zero(rtts, (np.median, np.max)),
        float(trace.n_packets),
        float(trace.sizes.mean()),
        bytes_down,
        bytes_up,
        duration,
        bytes_down / duration,
        bytes_up / duration,
    ]
    vector = np.asarray(features, dtype=np.float64)
    if vector.shape[0] != len(ML16_FEATURE_NAMES):
        raise AssertionError("feature vector length drifted from the schema")
    return vector


def as_objects(transfers: np.ndarray, connections: np.ndarray):
    """Transfer and connection rows as the per-transfer loop takes them:
    :class:`Transfer` objects and ``(id, opened_at, rtt)`` triples."""
    return (
        [
            Transfer(int(r[0]), float(r[1]), float(r[2]), float(r[3]), int(r[4]),
                     int(r[5]), int(r[6]), int(r[7]), int(r[8]), float(r[9]))
            for r in transfers
        ],
        [(int(r[0]), float(r[1]), float(r[2])) for r in connections],
    )


def session_trace(record, seed: int) -> PacketTrace:
    """A record's packet trace through the per-transfer loop, seeded as
    ``extract_ml16_matrix`` seeds session ``i`` (``seed + i``)."""
    return synthesize_packet_trace(
        *as_objects(record.transfers, record.connections), np.random.default_rng(seed)
    )


def reference_ml16_matrix(dataset, seed: int = 0) -> np.ndarray:
    """The per-session reference matrix: session ``i``'s record
    synthesized with seed ``seed + i`` by the loop, featurized by the
    per-connection code, rows stacked in order."""
    if len(dataset) == 0:
        return np.empty((0, len(ML16_FEATURE_NAMES)))
    return np.vstack(
        [
            extract_ml16_features(session_trace(record, seed + i))
            for i, record in enumerate(dataset)
        ]
    )
