"""The 38 TLS-transaction features of the paper (§3, Table 1).

Three groups, all computable from nothing but (start, end, uplink
bytes, downlink bytes) of a session's TLS transactions:

* **Session-level (4)** — ``SDR_DL``, ``SDR_UL`` (session data rates),
  ``SES_DUR`` (duration), ``TRANS_PER_SEC``.
* **Transaction statistics (18)** — min/median/max of six
  per-transaction metrics: ``DL_SIZE``, ``UL_SIZE``, ``DUR``, ``TDR``
  (transaction data rate), ``D2U`` (downlink-to-uplink ratio), ``IAT``
  (inter-arrival time of transaction starts).
* **Temporal (16)** — cumulative downlink and uplink bytes inside the
  growing intervals ``[0, X]`` for X ∈ {30, 60, 120, 240, 480, 720,
  960, 1200} seconds from session start; transactions partially
  overlapping an interval contribute pro-rata to their overlap (the
  paper's footnote 6 approximation).

Rates are in bytes/second and sizes in bytes; tree models are
scale-invariant and the distance-based models standardize internally.

Two extraction paths produce bit-identical output:

* :func:`extract_tls_features` — the per-session reference
  implementation (one transaction list in, one vector out).
* :func:`extract_tls_table` — the columnar kernel, one fused pass over a
  :class:`~repro.tlsproxy.table.TransactionTable` with no per-session
  and no per-interval loop.  The two session sums and the two temporal
  sums of each of the ``k`` intervals are rows of one ``(2 + 2k, n)``
  stack, reduced by one ``np.add.reduceat``; the five per-transaction
  metrics are one ``(5, n)`` stack, sorted within sessions in one call;
  IAT sorts the starts (unless every session's starts already rise),
  then its own gaps, the same way.  The result fills one preallocated
  matrix.  :func:`extract_tls_matrix` runs it
  block by block over a corpus, and so do the stream's score batches,
  the flow features and the fleet scorer.

Both paths sum through ``np.add.reduceat`` (see
:mod:`repro.tlsproxy.table`): a session's values reach the same
reduction loop whether they are the reference's whole column or one
segment of a stacked row, which is what makes ``np.array_equal``
between them hold exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import telemetry
from repro.tlsproxy.records import TlsTransaction, transactions_to_columns
from repro.tlsproxy.table import (
    TransactionTable,
    ordered_sum,
    segment_min_med_max,
    segment_sort,
    segment_sum,
)

__all__ = [
    "TEMPORAL_INTERVALS",
    "TLS_FEATURE_NAMES",
    "agnostic_feature_names",
    "feature_groups",
    "extract_tls_features",
    "extract_tls_matrix",
    "extract_tls_table",
    "select_features",
]

#: Interval end-points (seconds) for the temporal features.  The paper
#: treats these as a tunable hyperparameter; these are its defaults,
#: finer near session start where an empty buffer makes QoE fragile.
TEMPORAL_INTERVALS: tuple[int, ...] = (30, 60, 120, 240, 480, 720, 960, 1200)

_SESSION_FEATURES = ("SDR_DL", "SDR_UL", "SES_DUR", "TRANS_PER_SEC")
_TXN_METRICS = ("DL_SIZE", "UL_SIZE", "DUR", "TDR", "D2U", "IAT")
_TXN_STATS = ("MIN", "MED", "MAX")
_TXN_FEATURES = tuple(f"{m}_{s}" for m in _TXN_METRICS for s in _TXN_STATS)
_TEMPORAL_FEATURES = tuple(
    f"CUM_{direction}_{x}s" for x in TEMPORAL_INTERVALS for direction in ("DL", "UL")
)

#: All 38 feature names, in extraction order.
TLS_FEATURE_NAMES: tuple[str, ...] = (
    _SESSION_FEATURES + _TXN_FEATURES + _TEMPORAL_FEATURES
)


def temporal_feature_names(
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> tuple[str, ...]:
    """Temporal feature names for a given interval grid."""
    return tuple(
        f"CUM_{direction}_{x}s" for x in intervals for direction in ("DL", "UL")
    )


def feature_names(intervals: tuple[int, ...] = TEMPORAL_INTERVALS) -> tuple[str, ...]:
    """Full feature schema for a given temporal-interval grid."""
    return _SESSION_FEATURES + _TXN_FEATURES + temporal_feature_names(intervals)


def feature_groups() -> dict[str, tuple[str, ...]]:
    """The paper's three feature groups (Table 1 / Table 3 ablation)."""
    return {
        "session_level": _SESSION_FEATURES,
        "transaction_stats": _TXN_FEATURES,
        "temporal": _TEMPORAL_FEATURES,
    }


def agnostic_feature_names() -> tuple[str, ...]:
    """The application-agnostic feature subset (Berger et al. style).

    The 22 session-level + transaction-statistic features: rates,
    sizes, durations, and ratios that make no assumption about the
    application's traffic shape.  What this drops is the temporal
    group, whose cumulative-byte interval grid is tuned to buffered
    HAS sessions (startup burst, then steady state out to 1200 s) —
    the assumption RTC calls and live streams violate.
    """
    return _SESSION_FEATURES + _TXN_FEATURES


def select_features(
    X: np.ndarray,
    names: Sequence[str],
    subset: Sequence[str],
) -> np.ndarray:
    """Column-project a feature matrix onto a named subset, in order.

    Raises ``ValueError`` naming any requested feature absent from
    ``names`` (e.g. asking for a temporal column of an interval grid
    the matrix was not extracted with).
    """
    index = {name: i for i, name in enumerate(names)}
    missing = [name for name in subset if name not in index]
    if missing:
        raise ValueError(f"features not in this matrix: {missing}")
    cols = np.fromiter((index[name] for name in subset), dtype=np.int64)
    return np.asarray(X)[:, cols]


def _stat_triple(values: np.ndarray) -> tuple[float, float, float]:
    """(min, median, max); zeros when there are no values."""
    if values.size == 0:
        return 0.0, 0.0, 0.0
    return float(values.min()), float(np.median(values)), float(values.max())


def extract_tls_features(
    transactions: Sequence[TlsTransaction],
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> np.ndarray:
    """The feature vector of one session (38-dim for the paper's grid).

    ``transactions`` is everything the proxy exported for the session;
    order does not matter.  ``intervals`` is the temporal-interval
    hyperparameter (paper §3); the default is the paper's grid.

    This is the reference implementation the columnar fast path
    (:func:`extract_tls_matrix`) is held bit-identical to.
    """
    if not transactions:
        raise ValueError("a session needs at least one TLS transaction")
    starts, ends, uplink, downlink, _ = transactions_to_columns(transactions)

    session_start = float(starts.min())
    session_end = float(ends.max())
    ses_dur = max(session_end - session_start, 1e-9)
    n = len(transactions)

    features = [
        ordered_sum(downlink) / ses_dur,  # SDR_DL
        ordered_sum(uplink) / ses_dur,  # SDR_UL
        ses_dur,  # SES_DUR
        n / ses_dur,  # TRANS_PER_SEC
    ]

    durations = ends - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        tdr = np.where(durations > 0, downlink / np.maximum(durations, 1e-9), downlink)
        d2u = np.where(uplink > 0, downlink / np.maximum(uplink, 1e-9), downlink)
    iat = np.diff(np.sort(starts))
    for metric in (downlink, uplink, durations, tdr, d2u, iat):
        features.extend(_stat_triple(np.asarray(metric, dtype=np.float64)))

    # Temporal: pro-rata share of each transaction inside [0, X].
    rel_start = starts - session_start
    rel_end = ends - session_start
    span = np.maximum(rel_end - rel_start, 1e-9)
    for x in intervals:
        overlap = np.clip(np.minimum(rel_end, x) - rel_start, 0.0, None)
        share = np.minimum(overlap / span, 1.0)
        features.append(ordered_sum(downlink * share))
        features.append(ordered_sum(uplink * share))

    vector = np.asarray(features, dtype=np.float64)
    if vector.shape[0] != len(feature_names(intervals)):
        raise AssertionError("feature vector length drifted from the schema")
    return vector


def extract_tls_table(
    table: TransactionTable,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> np.ndarray:
    """Columnar kernel: the whole corpus's features in one fused pass.

    One row per table session, bit-identical to running
    :func:`extract_tls_features` on each session's transactions, with
    no per-session and no per-interval loop (the module docstring lists
    the pass's stacks).
    """
    counts = table.counts
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(
            f"session {empty} has no TLS transactions; drop empty sessions "
            "before feature extraction (every session needs at least one "
            "transaction)"
        )
    starts, ends = table.start, table.end
    uplink, downlink = table.uplink, table.downlink
    offsets = table.offsets
    lo = offsets[:-1]
    segment_ids = table.session_ids
    out = np.empty((table.n_sessions, len(feature_names(intervals))))

    session_start = np.minimum.reduceat(starts, lo)
    session_end = np.maximum.reduceat(ends, lo)
    ses_dur = np.maximum(session_end - session_start, 1e-9)

    # Temporal: pro-rata share of each transaction inside [0, X], one
    # (k, n) row per interval X.  Rows 2 + 2i and 3 + 2i of the stack
    # are interval i's downlink and uplink shares, which makes the
    # reduced stack's tail the feature order.
    row_start = session_start[segment_ids]
    rel_start = starts - row_start
    rel_end = ends - row_start
    span = np.maximum(rel_end - rel_start, 1e-9)
    share = np.minimum(rel_end, np.asarray(intervals, dtype=np.float64)[:, None])
    share -= rel_start
    np.clip(share, 0.0, None, out=share)  # the overlap with [0, X]
    share /= span
    np.minimum(share, 1.0, out=share)
    stack = np.empty((2 + 2 * len(intervals), table.n_rows))
    stack[0] = downlink
    stack[1] = uplink
    np.multiply(downlink, share, out=stack[2::2])
    np.multiply(uplink, share, out=stack[3::2])
    sums = segment_sum(stack, offsets)

    out[:, 0] = sums[0] / ses_dur  # SDR_DL
    out[:, 1] = sums[1] / ses_dur  # SDR_UL
    out[:, 2] = ses_dur  # SES_DUR
    out[:, 3] = counts.astype(np.float64) / ses_dur  # TRANS_PER_SEC
    out[:, 22:] = sums[2:].T  # CUM_DL_Xs, CUM_UL_Xs for each X

    durations = ends - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        tdr = np.where(durations > 0, downlink / np.maximum(durations, 1e-9), downlink)
        d2u = np.where(uplink > 0, downlink / np.maximum(uplink, 1e-9), downlink)
    mins, meds, maxs = segment_min_med_max(
        np.stack([downlink, uplink, durations, tdr, d2u]), offsets, segment_ids
    )
    out[:, 4:19:3] = mins.T  # DL_SIZE_MIN, UL_SIZE_MIN, ..., D2U_MIN
    out[:, 5:19:3] = meds.T
    out[:, 6:19:3] = maxs.T

    # IAT: diffs of within-session sorted start times.  Sessions stay
    # contiguous in the sorted column, so the per-row diff is valid
    # everywhere except the first row of each session, which is dropped.
    # Collected and streamed tables arrive start-ordered, and a session
    # whose starts never decrease is its own stable sort (its -0.0 and
    # 0.0 included), so only a table with an inversion is sorted.
    keep = np.ones(max(table.n_rows - 1, 0), dtype=bool)
    keep[lo[1:] - 1] = False
    inverted = starts[1:] < starts[:-1]
    inverted &= keep
    sorted_starts = segment_sort(starts, segment_ids) if inverted.any() else starts
    diffs = sorted_starts[1:] - sorted_starts[:-1]
    iat_counts = counts - 1
    iat_offsets = np.zeros(offsets.shape[0], dtype=np.int64)
    np.cumsum(iat_counts, out=iat_offsets[1:])
    iat_ids = np.repeat(np.arange(table.n_sessions, dtype=np.int64), iat_counts)
    out[:, 19], out[:, 20], out[:, 21] = segment_min_med_max(
        diffs[keep], iat_offsets, iat_ids
    )
    return out


def extract_tls_matrix(
    dataset,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Feature matrix for a whole corpus — the columnar fast path.

    ``dataset`` is a :class:`~repro.tlsproxy.table.TransactionTable`
    or a :class:`~repro.collection.dataset.Dataset`, whose
    ``iter_tables()`` yields one table per block (a stored corpus's
    shards, or the one block a corpus in memory holds), reduced *block
    at a time* (one slab materialized at once, rows stacked in order),
    bounding peak memory by the block size.
    Returns ``(X, names)`` with one row per session; ``names`` equals
    :data:`TLS_FEATURE_NAMES` for the default interval grid.  Output is
    bit-identical to stacking :func:`extract_tls_features` per session:
    every feature is a within-session reduction, so chunking cannot
    change any value.
    """
    names = feature_names(intervals)
    tables = (
        [dataset] if isinstance(dataset, TransactionTable) else dataset.iter_tables()
    )
    with telemetry.span("features.tls", sessions=len(dataset)) as sp:
        blocks = [
            extract_tls_table(table, intervals)
            for table in tables
            if table.n_sessions
        ]
        X = np.vstack(blocks) if blocks else np.empty((0, len(names)))
        sp.set(rows=int(X.shape[0]), cols=int(X.shape[1]))
    return X, names
