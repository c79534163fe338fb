"""The session-boundary heuristic (paper §4.2, Table 5).

For each transaction, look at the burst of *succeeding* transactions
starting within a window ``W`` after it: if the burst is big enough
(``N >= N_min``) and a large enough fraction of it targets servers
unseen in the running session (``δ >= δ_min``), the transaction starts
a new session.  The paper's parameters are W = 3 s, N_min = 2,
δ_min = 0.5.

The two insights this encodes: a session's beginning is characterized
by several TLS transactions (page, manifest, license, first segments),
and the CDN edge hostnames serving content usually change between
sessions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ml.metrics import confusion_matrix
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable

__all__ = [
    "BoundaryConfig",
    "decide_starts",
    "detect_session_starts",
    "evaluate_boundary_detection",
    "transaction_sort_key",
]


def transaction_sort_key(txn: TlsTransaction) -> tuple:
    """The canonical transaction ordering of the boundary heuristic.

    Ties on ``start`` are broken by the transaction's own content —
    ``(start, end, uplink, downlink, sni)`` — so the heuristic's output
    is a function of the transaction *multiset*, not of the order the
    caller happened to supply the rows in.  :func:`split_sessions`, the
    columnar path of :func:`detect_session_starts` and the streaming
    engine (:mod:`repro.stream`) all sort by exactly this key.
    """
    return (txn.start, txn.end, txn.uplink_bytes, txn.downlink_bytes, txn.sni)


def _canonical_order(table: TransactionTable) -> np.ndarray:
    """Row permutation sorting a table by :func:`transaction_sort_key`."""
    return np.lexsort(
        (
            np.asarray(table.sni),
            table.downlink,
            table.uplink,
            table.end,
            table.start,
        )
    )


@dataclass(frozen=True)
class BoundaryConfig:
    """Heuristic parameters (paper defaults)."""

    window_s: float = 3.0
    n_min: int = 2
    delta_min: float = 0.5

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window must be positive")
        if self.n_min < 1:
            raise ValueError("n_min must be >= 1")
        if not 0.0 <= self.delta_min <= 1.0:
            raise ValueError("delta_min must be in [0, 1]")


def detect_session_starts(
    transactions: Sequence[TlsTransaction] | TransactionTable,
    config: BoundaryConfig | None = None,
) -> np.ndarray:
    """Flag the transactions that start a new session.

    ``transactions`` is the merged stream a proxy sees for one
    (user, service) pair — a transaction sequence or a columnar
    :class:`~repro.tlsproxy.table.TransactionTable` (e.g. from
    :meth:`TransparentProxy.export_table`).  The returned boolean array
    is aligned with the *input* order: the function sorts internally by
    :func:`transaction_sort_key` — ``(start, end, uplink, downlink,
    sni)``, a content-based tie-break, so transactions sharing a start
    time are flagged identically for every input permutation — and
    maps the flags back.  The sorted table is decided by one
    :func:`decide_starts` call.

    The first transaction of the stream is always a session start.
    An empty stream yields an empty flag array; a stream of one
    transaction yields ``[True]``.
    """
    config = config or BoundaryConfig()
    if not isinstance(transactions, TransactionTable):
        transactions = TransactionTable.from_transactions(transactions)
    if transactions.sni is None:
        raise ValueError(
            "boundary detection needs the table's SNI column; build the "
            "table with sni hostnames (TransactionTable(..., sni=...))"
        )
    n = transactions.n_rows
    flags = np.zeros(n, dtype=bool)
    if n == 0:
        return flags
    order = _canonical_order(transactions)
    starts_at = decide_starts(
        transactions.start[order].tolist(),
        [transactions.sni[i] for i in order],
        0,
        n,
        set(),
        config,
    )
    flags[order[starts_at]] = True
    return flags


def decide_starts(
    starts: Sequence[float],
    snis: Sequence[str],
    lo: int,
    hi: int,
    servers: set[str],
    config: BoundaryConfig,
) -> list[int]:
    """Decide rows ``lo .. hi - 1`` of one stream's canonical-order log.

    ``starts`` and ``snis`` are the log's start-time and SNI columns,
    sorted by :func:`transaction_sort_key`.  Each decided row's burst —
    the rows starting within ``W`` after it — must already be in the
    log: the whole table in batch, the rows up to the watermark online.
    ``servers`` is the running session's server set; the call updates
    it in place, and an empty set means no row of the stream has been
    decided yet, so row ``lo`` opens the stream's first session.
    Returns the positions that start a new session, ascending.

    The columns are sorted, so a row whose burst holds fewer than
    ``N_min`` rows fails one comparison,
    ``starts[p + n_min] > starts[p] + W``, and cannot start a session.
    Only the remaining burst candidates read ``servers``; the SNIs of
    the rows between two candidates join it in one ``set.update``.
    """
    window = config.window_s
    n_min = config.n_min
    delta_min = config.delta_min
    flagged: list[int] = []
    if lo >= hi:
        return flagged
    if not servers:
        flagged.append(lo)
        servers.add(snis[lo])
        lo += 1
    merged = lo  # rows before this one are in ``servers``
    for pos in range(lo, min(hi, len(starts) - n_min)):
        # The paper considers the set of *succeeding* transactions
        # starting within W seconds of this one.
        limit = starts[pos] + window
        if starts[pos + n_min] > limit:
            continue
        servers.update(snis[merged:pos])
        end = bisect_right(starts, limit, pos + n_min + 1)
        burst = snis[pos + 1 : end]
        n_burst = end - (pos + 1)
        unseen = n_burst - sum(map(servers.__contains__, burst))
        if unseen / n_burst >= delta_min:
            flagged.append(pos)
            servers.clear()
        servers.add(snis[pos])
        merged = pos + 1
    servers.update(snis[merged:hi])
    return flagged


def split_sessions(
    transactions: Sequence[TlsTransaction],
    config: BoundaryConfig | None = None,
    min_transactions: int = 1,
) -> list[list[TlsTransaction]]:
    """Group a merged stream into per-session transaction lists.

    Sorts the stream by :func:`transaction_sort_key`, decides it with
    one :func:`decide_starts` call and cuts it at every detected
    boundary.  Groups smaller than ``min_transactions`` — usually
    spurious boundaries triggered by mid-session CDN switches — are
    merged into the preceding session, a practical post-filter an ISP
    deployment would apply.

    An empty stream returns an empty list.  The grouping is invariant
    to the input permutation even with tied start times.
    """
    if min_transactions < 1:
        raise ValueError("min_transactions must be >= 1")
    if not transactions:
        return []
    ordered = sorted(transactions, key=transaction_sort_key)
    starts_at = decide_starts(
        [t.start for t in ordered],
        [t.sni for t in ordered],
        0,
        len(ordered),
        set(),
        config or BoundaryConfig(),
    )
    groups: list[list[TlsTransaction]] = []
    first = 0
    for pos in starts_at[1:]:
        # A start inside an undersized group merges into it.
        if pos - first >= min_transactions:
            groups.append(ordered[first:pos])
            first = pos
    tail = ordered[first:]
    if groups and len(tail) < min_transactions:
        # A trailing undersized group merges backwards.
        groups[-1].extend(tail)
    else:
        groups.append(tail)
    return groups


def evaluate_boundary_detection(
    predicted_new: np.ndarray,
    actual_new: np.ndarray,
) -> np.ndarray:
    """Table-5 confusion matrix over transactions.

    Rows are the actual classes (existing, new), columns the predicted
    ones; entries are counts.
    """
    predicted_new = np.asarray(predicted_new, dtype=bool)
    actual_new = np.asarray(actual_new, dtype=bool)
    if predicted_new.shape != actual_new.shape:
        raise ValueError("prediction/truth shape mismatch")
    return confusion_matrix(
        actual_new.astype(np.int64), predicted_new.astype(np.int64), n_classes=2
    )
