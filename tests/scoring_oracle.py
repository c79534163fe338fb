"""The loops the batch-scoring kernels replaced: golden oracles.

Scoring a batch of sessions runs three kernels: record objects to
columns (:func:`repro.tlsproxy.records.transactions_to_columns`), the
38 TLS features (:func:`repro.features.tls_features.extract_tls_table`)
and the forest's soft vote
(:meth:`repro.ml.forest.RandomForestClassifier.predict_proba`).  This
module keeps the code each one replaced, so tests can hold the kernels
to it byte for byte:

* :func:`columns_per_row` stores every row's four values one at a time
  into preallocated arrays;
* :func:`loop_tls_table` is the columnar TLS kernel as it was before
  the fused pass: a ``np.lexsort`` per within-session sort
  (:func:`lexsort_min_med_max`), two segment sums per temporal
  interval in a Python loop, and one ``np.column_stack`` of the 38
  columns;
* :func:`per_tree_proba` adds the trees' leaf values to a zero array
  one tree at a time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.tls_features import TEMPORAL_INTERVALS, feature_names
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable, segment_sum

__all__ = [
    "columns_per_row",
    "lexsort_min_med_max",
    "loop_tls_table",
    "per_tree_proba",
]


def columns_per_row(
    transactions: Sequence[TlsTransaction],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
    """Record objects to ``(start, end, uplink, downlink, sni)``, one
    stored value at a time."""
    n = len(transactions)
    start = np.empty(n, dtype=np.float64)
    end = np.empty(n, dtype=np.float64)
    uplink = np.empty(n, dtype=np.float64)
    downlink = np.empty(n, dtype=np.float64)
    for i, t in enumerate(transactions):
        start[i] = t.start
        end[i] = t.end
        uplink[i] = t.uplink_bytes
        downlink[i] = t.downlink_bytes
    return start, end, uplink, downlink, tuple(t.sni for t in transactions)


def lexsort_min_med_max(
    values: np.ndarray,
    offsets: np.ndarray,
    segment_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment (min, median, max) of one column, zeros for empty
    segments, from one stable sort by (segment, value)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    counts = np.diff(offsets)
    n_segments = counts.shape[0]
    mins = np.zeros(n_segments, dtype=np.float64)
    meds = np.zeros(n_segments, dtype=np.float64)
    maxs = np.zeros(n_segments, dtype=np.float64)
    nonempty = counts > 0
    if values.size == 0 or not nonempty.any():
        return mins, meds, maxs
    if segment_ids is None:
        segment_ids = np.repeat(np.arange(n_segments), counts)
    ranked = values[np.lexsort((values, segment_ids))]
    lo = offsets[:-1]
    mins[nonempty] = ranked[lo[nonempty]]
    maxs[nonempty] = ranked[(offsets[1:] - 1)[nonempty]]
    med_lo = lo + (counts - 1) // 2
    med_hi = lo + counts // 2
    meds[nonempty] = (ranked[med_lo[nonempty]] + ranked[med_hi[nonempty]]) / 2.0
    return mins, meds, maxs


def loop_tls_table(
    table: TransactionTable,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> np.ndarray:
    """The whole table's TLS features, one column at a time."""
    counts = table.counts
    if np.any(counts == 0):
        raise ValueError("every session needs at least one transaction")
    starts, ends = table.start, table.end
    uplink, downlink = table.uplink, table.downlink
    offsets = table.offsets
    lo = offsets[:-1]
    segment_ids = table.session_ids

    session_start = np.minimum.reduceat(starts, lo)
    session_end = np.maximum.reduceat(ends, lo)
    ses_dur = np.maximum(session_end - session_start, 1e-9)

    columns = [
        segment_sum(downlink, offsets) / ses_dur,
        segment_sum(uplink, offsets) / ses_dur,
        ses_dur,
        counts.astype(np.float64) / ses_dur,
    ]

    durations = ends - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        tdr = np.where(durations > 0, downlink / np.maximum(durations, 1e-9), downlink)
        d2u = np.where(uplink > 0, downlink / np.maximum(uplink, 1e-9), downlink)

    sorted_starts = starts[np.lexsort((starts, segment_ids))]
    diffs = sorted_starts[1:] - sorted_starts[:-1]
    keep = np.ones(max(table.n_rows - 1, 0), dtype=bool)
    keep[lo[1:] - 1] = False
    iat = diffs[keep]
    iat_counts = counts - 1
    iat_offsets = np.zeros(offsets.shape[0], dtype=np.int64)
    np.cumsum(iat_counts, out=iat_offsets[1:])
    iat_ids = np.repeat(np.arange(table.n_sessions, dtype=np.int64), iat_counts)

    for metric, m_offsets, m_ids in (
        (downlink, offsets, segment_ids),
        (uplink, offsets, segment_ids),
        (durations, offsets, segment_ids),
        (tdr, offsets, segment_ids),
        (d2u, offsets, segment_ids),
        (iat, iat_offsets, iat_ids),
    ):
        columns.extend(lexsort_min_med_max(metric, m_offsets, m_ids))

    rel_start = starts - session_start[segment_ids]
    rel_end = ends - session_start[segment_ids]
    span = np.maximum(rel_end - rel_start, 1e-9)
    for x in intervals:
        overlap = np.clip(np.minimum(rel_end, x) - rel_start, 0.0, None)
        share = np.minimum(overlap / span, 1.0)
        columns.append(segment_sum(downlink * share, offsets))
        columns.append(segment_sum(uplink * share, offsets))

    matrix = np.column_stack(columns)
    if matrix.shape[1] != len(feature_names(intervals)):
        raise AssertionError("feature matrix width drifted from the schema")
    return matrix


def per_tree_proba(forest, X: np.ndarray) -> np.ndarray:
    """A fitted forest's soft vote, summed tree by tree from zeros."""
    X = np.asarray(X, dtype=np.float64)
    leaf = forest._flat_ensemble().leaf_values(X)
    proba = np.zeros((X.shape[0], forest.classes_.shape[0]))
    for t in range(len(forest.trees_)):
        proba += leaf[t]
    return proba / len(forest.trees_)
