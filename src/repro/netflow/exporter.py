"""NetFlow v9-style flow exporter, columnar.

Converts connections' transfer records into flow records the way a
router's NetFlow cache would:

* a flow entry is created when a connection's first packet is seen;
* the **active timeout** flushes long-lived flows periodically, so a
  connection spanning minutes appears as several consecutive records
  (the "periodic summaries" the paper highlights);
* the **idle timeout** flushes flows with no traffic, so a connection
  with an idle gap longer than the timeout restarts as a new record;
* each record carries packet and byte counters for both directions.

Bytes and packets of a transfer are spread uniformly over the
transfer's wall-clock span when a slice boundary cuts through it —
the same approximation the paper applies to TLS transactions
(footnote 6).

:func:`export_flow_table` exports a whole block of sessions in the
shard layout — the ``(n, 10)`` transfer array plus its per-session
offsets — in one array pass, into a :class:`FlowTable` of columns.
The per-connection loop it replaced is the reference in
``tests/flow_oracle.py``; the two agree bit for bit, record by record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tlsproxy.table import TransactionTable

__all__ = ["ExporterConfig", "FlowTable", "export_flow_table"]

#: Transfer columns (see ``repro.collection.dataset``) the exporter reads.
_CONNECTION, _START, _END = 0, 1, 3
#: Record counters and the transfer column each sums, in the order
#: bytes up, bytes down, packets down, packets up.
_COUNTERS = (
    ("bytes_up", 4),
    ("bytes_down", 5),
    ("packets_down", 6),
    ("packets_up", 7),
)
#: Span floor: a zero-duration transfer gets share 0 of every slice.
_MIN_SPAN = 1e-9


@dataclass(frozen=True)
class ExporterConfig:
    """NetFlow cache timeouts (router defaults are common)."""

    active_timeout_s: float = 60.0
    idle_timeout_s: float = 15.0

    def __post_init__(self) -> None:
        if self.active_timeout_s <= 0 or self.idle_timeout_s <= 0:
            raise ValueError("timeouts must be positive")


@dataclass(frozen=True)
class FlowTable:
    """Every flow record of a block of sessions, as columns.

    Attributes
    ----------
    records:
        Each record's ``start``/``end`` and byte counters (``uplink`` is
        bytes up, ``downlink`` bytes down) as a
        :class:`~repro.tlsproxy.table.TransactionTable`; session ``s``
        owns records ``[offsets[s], offsets[s + 1])``, ordered by
        (start, end), ties in connection-id and slice order.
    flow_id:
        The record's connection id (int64; a real exporter keys on the
        5-tuple, the simulated connection id stands in).
    packets_up, packets_down:
        Packet counters per record (float64, integral).
    """

    records: TransactionTable
    flow_id: np.ndarray
    packets_up: np.ndarray
    packets_down: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Flow records per session."""
        return np.diff(self.records.offsets)


def _running_max(values: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """Running maximum of ``values`` that restarts with every segment.

    ``segment`` holds non-decreasing segment ids.  The scan runs on
    ranks: ``segment * n + rank`` rises from one segment to the next, so
    one ``np.maximum.accumulate`` never carries a maximum across a
    segment start, and ranks map back to the exact values.
    """
    n = values.shape[0]
    by_value = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_value] = np.arange(n)
    base = segment * n
    return values[by_value[np.maximum.accumulate(base + rank) - base]]


def export_flow_table(
    transfers: np.ndarray,
    offsets: np.ndarray,
    config: ExporterConfig | None = None,
) -> FlowTable:
    """Export the flow records a NetFlow cache would emit for a block
    of sessions.

    ``transfers`` is the block's ``(n, 10)`` transfer array and
    ``offsets`` its ``(S + 1,)`` index: session ``s`` owns rows
    ``[offsets[s], offsets[s + 1])``.  A session without transfers
    exports no records.  Non-finite connection ids, times or counters
    raise ``ValueError`` naming the column, and so does a record that
    would end before it starts or carry a negative counter.
    """
    config = config or ExporterConfig()
    transfers = np.asarray(transfers, dtype=np.float64).reshape(-1, 10)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_sessions = offsets.shape[0] - 1
    read = (("connection_id", _CONNECTION), ("start", _START), ("end", _END), *_COUNTERS)
    for name, column in read:
        if not np.isfinite(transfers[:, column]).all():
            raise ValueError(f"transfer column {name!r} must be finite")
    n = transfers.shape[0]

    # Rows by (session, connection, start); ties keep their stored order.
    session = np.repeat(np.arange(n_sessions), np.diff(offsets))
    conn = transfers[:, _CONNECTION].astype(np.int64)
    order = np.lexsort((transfers[:, _START], conn, session))
    rows = transfers[order]
    session, conn = session[order], conn[order]
    start, end = rows[:, _START], rows[:, _END]

    # Connections are runs of equal (session, connection).
    opens_conn = np.ones(n, dtype=bool)
    opens_conn[1:] = (session[1:] != session[:-1]) | (conn[1:] != conn[:-1])
    conn_of_row = np.cumsum(opens_conn) - 1
    conn_lo = np.flatnonzero(opens_conn)
    conn_width = np.diff(np.append(conn_lo, n))

    # The cache's last-activity time: a running max of ``end`` over the
    # connection, seeded with its first start.  ``after[i]`` holds it once
    # row i is seen, ``before[i]`` when row i arrives.
    seeded = end.copy()
    seeded[conn_lo] = np.maximum(start[conn_lo], end[conn_lo])
    after = _running_max(seeded, conn_of_row)
    before = np.empty(n)
    before[1:] = after[:-1]
    before[conn_lo] = start[conn_lo]

    # An idle gap (strictly longer than the timeout) opens a new record
    # run; each run then flushes every active timeout until its last
    # activity, each bound one addition past the previous one.
    opens_run = opens_conn | (start - before > config.idle_timeout_s)
    run_lo = np.flatnonzero(opens_run)
    record_start = start[run_lo]
    last = np.maximum.reduceat(after, run_lo)  # ``after`` rises along a run
    active = config.active_timeout_s
    slice_start, slice_end, slice_run = [], [], []
    flushing = np.flatnonzero(last - record_start > active)
    while flushing.size:
        lo = record_start[flushing]
        hi = lo + active
        slice_start.append(lo)
        slice_end.append(hi)
        slice_run.append(flushing)
        record_start[flushing] = hi
        flushing = flushing[last[flushing] - hi > active]
    # Each run's final record, after all of its flushes.
    slice_start.append(record_start)
    slice_end.append(last)
    slice_run.append(np.arange(run_lo.shape[0]))
    slice_start = np.concatenate(slice_start)
    slice_end = np.concatenate(slice_end)
    slice_run = np.concatenate(slice_run)

    # Counters: each slice takes its share of every row of its connection,
    # summed with ``ndarray.sum`` one row of a 2-D block per slice (the
    # same pairwise order as summing the connection's rows alone).  An
    # empty slice (end <= start) overlaps no row, so all its counters are
    # zero and it is dropped with the other silent slices below.
    slice_conn = conn_of_row[run_lo[slice_run]]
    width = conn_width[slice_conn]
    sums = np.empty((len(_COUNTERS), slice_start.shape[0]))
    for w in np.unique(width):
        pick = np.flatnonzero(width == w)
        cells = conn_lo[slice_conn[pick]][:, None] + np.arange(w)
        cell_start, cell_end = start[cells], end[cells]
        span = np.maximum(cell_end - cell_start, _MIN_SPAN)
        overlap = np.clip(
            np.minimum(cell_end, slice_end[pick, None])
            - np.maximum(cell_start, slice_start[pick, None]),
            0.0,
            None,
        )
        share = np.minimum(overlap / span, 1.0)
        for k, (_, column) in enumerate(_COUNTERS):
            sums[k, pick] = (rows[cells, column] * share).sum(axis=1)
    # Half-to-even rounding, as ``int(round(x))``; ``+ 0.0`` clears -0.0.
    bytes_up, bytes_down, packets_down, packets_up = counts = np.rint(sums) + 0.0
    keep = (bytes_up + bytes_down != 0) | (packets_up + packets_down != 0)

    # Per session, records in (start, end) order; ties keep connection-id
    # order, then run order (the slices of one run never tie: each starts
    # where the previous one ended).
    slice_session = session[run_lo[slice_run]]
    kept = np.flatnonzero(keep)
    kept = kept[
        np.lexsort(
            (slice_run[kept], slice_end[kept], slice_start[kept], slice_session[kept])
        )
    ]
    flow_start, flow_end = slice_start[kept], slice_end[kept]
    if not (flow_end >= flow_start).all():
        raise ValueError("flow record 'end' must not precede its 'start'")
    counters = {name: values for (name, _), values in zip(_COUNTERS, counts[:, kept])}
    for name, values in counters.items():
        if (values < 0).any():
            raise ValueError(f"flow record counter {name!r} must be non-negative")
    flow_offsets = np.zeros(n_sessions + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(slice_session[kept], minlength=n_sessions), out=flow_offsets[1:]
    )
    records = TransactionTable(
        start=flow_start,
        end=flow_end,
        uplink=counters["bytes_up"],
        downlink=counters["bytes_down"],
        offsets=flow_offsets,
    )
    return FlowTable(
        records=records,
        flow_id=conn[run_lo[slice_run[kept]]],
        packets_up=counters["packets_up"],
        packets_down=counters["packets_down"],
    )
