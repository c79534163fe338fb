"""Video-segment reconstruction from packet traces.

Packet-level QoE systems recover application objects from the traffic
shape: every sizeable uplink packet is an HTTP request, and the
downlink bytes that follow it (until the next request on the same
connection) are the response.  Responses above a size threshold are
video/audio segments; the rest are control traffic.  ML16's segment
features are computed on this reconstruction, never on ground truth.

Reconstruction is columnar: :class:`ConnectionPackets` sorts a trace
once by connection (stable, so each connection keeps its time order),
and :func:`segments_by_connection` assigns every data packet to its
request and reduces each response with whole-trace array ops.  The
per-connection reference it replaced lives in ``tests/packet_oracle.py``;
the two are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.packets import _ACK_BYTES, DOWNLINK, PacketTrace

__all__ = ["ConnectionPackets", "ReconstructedSegments", "segments_by_connection"]

#: Uplink packets with more payload than this are treated as requests
#: (pure ACKs are 66 bytes; HTTP request headers are hundreds).
_REQUEST_WIRE_BYTES = 300

#: Responses smaller than this are control traffic, not segments.
_MIN_SEGMENT_BYTES = 20_000


@dataclass(frozen=True)
class ReconstructedSegments:
    """Segments recovered from a packet trace (parallel arrays)."""

    start_times: np.ndarray
    sizes_bytes: np.ndarray
    durations: np.ndarray

    @property
    def n_segments(self) -> int:
        """Number of recovered segments."""
        return int(self.start_times.shape[0])

    def throughputs(self) -> np.ndarray:
        """Per-segment download rates in bytes/second."""
        return self.sizes_bytes / np.maximum(self.durations, 1e-9)

    def inter_arrivals(self) -> np.ndarray:
        """Gaps between consecutive segment starts."""
        if self.n_segments < 2:
            return np.empty(0)
        return np.diff(np.sort(self.start_times))


@dataclass(frozen=True)
class ConnectionPackets:
    """A packet trace's packets grouped by connection, ascending, each
    connection's packets in time order: connection ``k`` owns rows
    ``bounds[k]:bounds[k + 1]``."""

    timestamps: np.ndarray
    sizes: np.ndarray
    directions: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, trace: PacketTrace) -> "ConnectionPackets":
        """Group a time-sorted trace by one stable sort on its
        connection ids."""
        ids = trace.connection_ids
        if ids.size and int(ids.max()) - int(ids.min()) < 1 << 15:
            # Equal ordering on small offsets, which numpy sorts by radix.
            ids = (ids - ids.min()).astype(np.int16)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        return cls(
            timestamps=trace.timestamps[order],
            sizes=trace.sizes[order],
            directions=trace.directions[order],
            bounds=np.concatenate(([0], starts, [ids.shape[0]])),
        )

    def first_times(self, direction: int) -> np.ndarray:
        """Each connection's first packet time in ``direction`` (NaN
        without one)."""
        rows = np.flatnonzero(self.directions == direction)
        first = np.searchsorted(rows, self.bounds[:-1])
        hit = first < rows.shape[0]
        hit[hit] = rows[first[hit]] < self.bounds[1:][hit]
        times = np.full(first.shape[0], np.nan)
        times[hit] = self.timestamps[rows[first[hit]]]
        return times


def segments_by_connection(packets: ConnectionPackets) -> ReconstructedSegments:
    """Recover (start, size, duration) of media segments from packets.

    On each connection, request packets delimit responses: a downlink
    data packet belongs to the connection's last request sent at or
    before it (a data packet at a request's own timestamp included),
    and each response's bytes and span come from its data packets.
    Segments are ordered by ``np.argsort`` of their starts listed in
    (connection, request) order, the order the per-connection code
    listed them in, so tied starts order as they did.
    """
    ts, sz, bounds = packets.timestamps, packets.sizes, packets.bounds
    down = packets.directions == DOWNLINK
    requests = np.flatnonzero(~down & (sz >= _REQUEST_WIRE_BYTES))
    data = np.flatnonzero(down & (sz > _ACK_BYTES))
    req_times = ts[requests]
    conn = np.searchsorted(bounds, requests, side="right") - 1
    # Request j's response is a run of the connection's time-ordered
    # data packets, from the first at or after it to the next request's
    # run (or the connection's end).
    lo = np.searchsorted(data, requests)
    conn_lo = np.searchsorted(data, bounds[conn])
    if data.size:
        # Data packets at a request's own timestamp join it, also where
        # the time sort put them ahead of it.
        tied = (lo > conn_lo) & (ts[data[lo - 1]] == req_times)
        while tied.any():
            lo -= tied
            tied &= (lo > conn_lo) & (ts[data[lo - 1]] == req_times)
    hi = np.searchsorted(data, bounds[conn + 1])
    same = conn[1:] == conn[:-1]
    hi[:-1][same] = lo[1:][same]
    # Byte counts are integers, exact in float64.
    cumulative = np.concatenate(([0], np.cumsum(sz[data])))
    byte_sums = (cumulative[hi] - cumulative[lo]).astype(np.float64)
    keep = byte_sums >= _MIN_SEGMENT_BYTES
    starts = req_times[keep]
    spans = ts[data[hi[keep] - 1]] - ts[data[lo[keep]]]
    order = np.argsort(starts)
    return ReconstructedSegments(
        start_times=starts[order],
        sizes_bytes=byte_sums[keep][order],
        durations=np.maximum(spans, 1e-6)[order],
    )
