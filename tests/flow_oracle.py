"""The per-connection NetFlow exporter: golden oracle for the columnar one.

:func:`repro.netflow.exporter.export_flow_table` exports every flow
record of a block of sessions in one array pass.  This module keeps the
loop it replaced as the reference: for each session, for each
connection, a Python walk over its start-sorted transfers that applies
the idle and active timeouts (:func:`_slice_bounds`), then one share
and four sums per slice over all of the connection's rows, one
:class:`FlowRecord` per surviving slice, and a stable sort by
(start, end).  :func:`extract_flow_features` is the per-session
feature vector over those records, reusing the per-session TLS
reference.

:func:`columnar_records` views one session of a
:class:`~repro.netflow.exporter.FlowTable` as oracle records, so tests
compare the two exporters field for field;
:func:`reference_flow_matrix` stacks the per-session vectors of a
corpus, which ``extract_flow_matrix`` must equal byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.features.tls_features import extract_tls_features
from repro.netflow.exporter import ExporterConfig, FlowTable
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import ordered_sum

__all__ = [
    "FlowRecord",
    "columnar_records",
    "export_flows",
    "extract_flow_features",
    "reference_flow_matrix",
]


@dataclass(frozen=True)
class FlowRecord:
    """One exported flow record (bidirectional counters).

    Parameters
    ----------
    flow_id:
        The underlying connection's identifier (a real exporter keys
        on the 5-tuple; the simulated connection id stands in).
    start, end:
        First/last packet time covered by this record.
    bytes_up, bytes_down:
        Payload byte counters per direction.
    packets_up, packets_down:
        Packet counters per direction.
    """

    flow_id: int
    start: float
    end: float
    bytes_up: int
    bytes_down: int
    packets_up: int
    packets_down: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("flow record ends before it starts")
        if min(self.bytes_up, self.bytes_down, self.packets_up, self.packets_down) < 0:
            raise ValueError("counters must be non-negative")

    @property
    def duration(self) -> float:
        """Record time span in seconds."""
        return self.end - self.start


def _slice_bounds(
    intervals: np.ndarray, config: ExporterConfig
) -> list[tuple[float, float]]:
    """Record boundaries for one connection's activity intervals.

    ``intervals`` is an ``(n, 2)`` array of transfer (start, end)
    times, sorted by start.  Returns the (start, end) of each flow
    record after applying idle and active timeouts.
    """
    bounds: list[tuple[float, float]] = []
    record_start = float(intervals[0, 0])
    last_activity = record_start
    for start, end in intervals:
        if start - last_activity > config.idle_timeout_s:
            bounds.append((record_start, last_activity))
            record_start = float(start)
        last_activity = max(last_activity, float(end))
        # Active timeout flushes mid-transfer as well.
        while last_activity - record_start > config.active_timeout_s:
            flush_at = record_start + config.active_timeout_s
            bounds.append((record_start, flush_at))
            record_start = flush_at
    bounds.append((record_start, last_activity))
    return [(s, e) for s, e in bounds if e > s]


def export_flows(
    transfers: np.ndarray, config: ExporterConfig | None = None
) -> list[FlowRecord]:
    """The flow records a NetFlow cache would emit for one session's
    ``(n, 10)`` transfer array."""
    config = config or ExporterConfig()
    if transfers.shape[0] == 0:
        return []
    flows: list[FlowRecord] = []
    conn_ids = transfers[:, 0].astype(np.int64)
    for conn in np.unique(conn_ids):
        rows = transfers[conn_ids == conn]
        order = np.argsort(rows[:, 1], kind="stable")
        rows = rows[order]
        intervals = rows[:, [1, 3]]  # start, end
        for slice_start, slice_end in _slice_bounds(intervals, config):
            span = np.maximum(rows[:, 3] - rows[:, 1], 1e-9)
            overlap = np.clip(
                np.minimum(rows[:, 3], slice_end) - np.maximum(rows[:, 1], slice_start),
                0.0,
                None,
            )
            share = np.minimum(overlap / span, 1.0)
            bytes_up = int(round(float((rows[:, 4] * share).sum())))
            bytes_down = int(round(float((rows[:, 5] * share).sum())))
            pkts_down = int(round(float((rows[:, 6] * share).sum())))
            pkts_up = int(round(float((rows[:, 7] * share).sum())))
            if bytes_up + bytes_down == 0 and pkts_up + pkts_down == 0:
                continue
            flows.append(
                FlowRecord(
                    flow_id=int(conn),
                    start=float(slice_start),
                    end=float(slice_end),
                    bytes_up=bytes_up,
                    bytes_down=bytes_down,
                    packets_up=pkts_up,
                    packets_down=pkts_down,
                )
            )
    flows.sort(key=lambda f: (f.start, f.end))
    return flows


def extract_flow_features(flows: Sequence[FlowRecord]) -> np.ndarray:
    """Feature vector for one session's flow records (reference path)."""
    if not flows:
        raise ValueError("a session needs at least one flow record")
    as_transactions = [
        TlsTransaction(
            start=f.start,
            end=f.end,
            uplink_bytes=f.bytes_up,
            downlink_bytes=f.bytes_down,
            sni="flow",
        )
        for f in flows
    ]
    base = extract_tls_features(as_transactions)

    pkts_down = np.array([f.packets_down for f in flows], dtype=np.float64)
    pkts_up = np.array([f.packets_up for f in flows], dtype=np.float64)
    bytes_down = np.array([f.bytes_down for f in flows], dtype=np.float64)
    bytes_up = np.array([f.bytes_up for f in flows], dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        size_down = np.where(pkts_down > 0, bytes_down / np.maximum(pkts_down, 1), 0.0)
        size_up = np.where(pkts_up > 0, bytes_up / np.maximum(pkts_up, 1), 0.0)
    session_span = max(f.end for f in flows) - min(f.start for f in flows)
    extra = np.array(
        [
            float(np.median(size_down)),
            float(np.median(size_up)),
            (ordered_sum(pkts_down) + ordered_sum(pkts_up))
            / max(session_span, 1e-9),
        ]
    )
    return np.concatenate([base, extra])


def reference_flow_matrix(
    dataset, config: ExporterConfig | None = None
) -> np.ndarray:
    """One reference flow-feature vector per session, stacked."""
    return np.vstack(
        [extract_flow_features(export_flows(r.transfers, config)) for r in dataset]
    )


def columnar_records(flows: FlowTable, session: int) -> list[FlowRecord]:
    """Session ``session`` of a columnar export, as oracle records."""
    lo, hi = flows.records.offsets[session], flows.records.offsets[session + 1]
    return [
        FlowRecord(
            flow_id=int(flows.flow_id[i]),
            start=float(flows.records.start[i]),
            end=float(flows.records.end[i]),
            bytes_up=int(flows.records.uplink[i]),
            bytes_down=int(flows.records.downlink[i]),
            packets_up=int(flows.packets_up[i]),
            packets_down=int(flows.packets_down[i]),
        )
        for i in range(lo, hi)
    ]
