"""Per-session row buffers for the streaming engine.

:class:`SessionAccumulator` is one open session's transaction rows,
buffered as four columns (``start``, ``end``, ``uplink``,
``downlink``) in the canonical order the engine decides them in, plus
the count and event-time extent the engine reports on each verdict.
Adding a transaction is four list appends; no feature is computed per
event.

Features are computed when sessions close, by the shared columnar
kernel :func:`~repro.features.tls_features.extract_tls_table`:
:func:`session_table` stacks any number of buffers into one
:class:`~repro.tlsproxy.table.TransactionTable` (one segment per
session), so the engine featurizes a whole score batch in one kernel
call, and :meth:`SessionAccumulator.finalize` /
:meth:`SessionAccumulator.snapshot` are the one-session case of the
same call.  The kernel is held bit-identical to the per-session
reference :func:`~repro.features.tls_features.extract_tls_features` by
the golden tests, and every feature is a within-session reduction, so
the batch a session is featurized in cannot change its vector.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.features.tls_features import (
    TEMPORAL_INTERVALS,
    extract_tls_table,
    feature_groups,
    feature_names,
    temporal_feature_names,
)
from repro.tlsproxy.table import TransactionTable

__all__ = ["SessionAccumulator", "session_table"]


class SessionAccumulator:
    """One open session's buffered transaction rows.

    Transactions must be added in the canonical sort order (ascending
    ``(start, end, uplink, downlink, sni)``); the engine guarantees
    this because online boundary decisions are emitted in exactly that
    order.  ``finalize()`` may be called at any time and does not
    consume the buffer, so an evicted session can still be scored and a
    trailing undersized group can later be merged in.
    """

    __slots__ = (
        "intervals",
        "n",
        "session_start",
        "session_end",
        "_starts",
        "_ends",
        "_uplinks",
        "_downlinks",
    )

    def __init__(self, intervals: tuple[int, ...] = TEMPORAL_INTERVALS):
        self.intervals = tuple(intervals)
        self.n = 0
        self.session_start = 0.0
        self.session_end = 0.0
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._uplinks: list[float] = []
        self._downlinks: list[float] = []

    def add(self, start: float, end: float, uplink: float, downlink: float) -> None:
        """Append one transaction to the session (time-ordered)."""
        start = float(start)
        end = float(end)
        if self.n == 0:
            self.session_start = start
            self.session_end = end
        else:
            if start < self.session_start:
                raise ValueError(
                    "transactions must be added in canonical time order"
                )
            if end > self.session_end:
                self.session_end = end
        self.n += 1
        self._starts.append(start)
        self._ends.append(end)
        self._uplinks.append(float(uplink))
        self._downlinks.append(float(downlink))

    def rows(self) -> list[tuple[float, float, float, float]]:
        """The buffered ``(start, end, uplink, downlink)`` rows, in
        addition order — used to merge a trailing undersized group
        backwards into its predecessor."""
        return list(zip(self._starts, self._ends, self._uplinks, self._downlinks))

    def finalize(self) -> np.ndarray:
        """The session's feature vector (``feature_names(intervals)``
        schema), bit-identical to the batch
        :func:`~repro.features.tls_features.extract_tls_features`."""
        if self.n == 0:
            raise ValueError("a session needs at least one TLS transaction")
        return extract_tls_table(session_table([self]), self.intervals)[0]

    def snapshot(self) -> dict[str, float]:
        """The partial session's transaction count, session-level and
        temporal features, as they stand now.

        Exact — the same values :meth:`finalize` gives for the rows
        buffered so far — at ``O(n)`` per call; like :meth:`finalize`,
        it rejects an empty session.
        """
        values = dict(zip(feature_names(self.intervals), self.finalize().tolist()))
        keys = feature_groups()["session_level"] + temporal_feature_names(self.intervals)
        return {"n_transactions": float(self.n), **{k: values[k] for k in keys}}


def session_table(groups: Sequence[SessionAccumulator]) -> TransactionTable:
    """Stack session buffers into one table, one segment per buffer."""
    offsets = np.cumsum([0] + [g.n for g in groups], dtype=np.int64)
    n_rows = int(offsets[-1])

    def column(lists) -> np.ndarray:
        return np.fromiter(chain.from_iterable(lists), dtype=np.float64, count=n_rows)

    return TransactionTable(
        start=column(g._starts for g in groups),
        end=column(g._ends for g in groups),
        uplink=column(g._uplinks for g in groups),
        downlink=column(g._downlinks for g in groups),
        offsets=offsets,
    )
