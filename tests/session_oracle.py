"""Session-boundary oracles: the per-row loop and the per-event engine.

:func:`repro.sessions.boundary.decide_starts` is the one session-boundary
decider; batch detection and the streaming engine both call it.  This
module keeps the two implementations it replaced, as golden oracles:

* :func:`oracle_session_starts` — the per-row loop of the paper's
  heuristic (§4.2): for every row of the sorted table, one
  ``searchsorted`` for the end of its burst, then a count of the burst's
  unseen servers; :func:`oracle_split_sessions` groups its flags one
  row at a time.  ``tests/test_sessions.py`` holds
  :func:`~repro.sessions.boundary.detect_session_starts` and
  :func:`~repro.sessions.boundary.split_sessions` equal to them.
* :class:`OracleStreamDetector` — the per-event streaming engine: every
  event is ``insort``-ed into a pending list and the list is drained
  left to right, one decision per transaction; every decided
  transaction is appended to its open session's
  :class:`SessionAccumulator`.  ``tests/test_stream.py`` holds
  :class:`~repro.stream.engine.StreamDetector` equal to it, verdict by
  verdict (every field, and which call returns it) and ``stats()`` after
  every call, for any micro-batch split.

The oracle shares :class:`~repro.stream.engine.StreamConfig`,
:class:`~repro.stream.engine.StreamVerdict` and the columnar feature
kernel with the production engine; it differs in how it decides
boundaries, groups sessions and keeps its books.  One deliberate
difference: under ``late_policy="error"`` the oracle raises in the
middle of a micro-batch, after the batch's earlier events changed its
state, where the production engine rejects the whole batch first.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.features.tls_features import TEMPORAL_INTERVALS, extract_tls_table
from repro.sessions.boundary import BoundaryConfig, _canonical_order, transaction_sort_key
from repro.stream.engine import StreamConfig, StreamVerdict
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable

__all__ = [
    "OracleStreamDetector",
    "SessionAccumulator",
    "oracle_session_starts",
    "oracle_split_sessions",
    "session_table",
]


def oracle_session_starts(
    transactions: Sequence[TlsTransaction] | TransactionTable,
    config: BoundaryConfig | None = None,
) -> np.ndarray:
    """Flag the transactions that start a new session, one row at a time.

    Same contract as
    :func:`~repro.sessions.boundary.detect_session_starts`: flags align
    with the input order, and the first transaction always starts a
    session.
    """
    config = config or BoundaryConfig()
    if not isinstance(transactions, TransactionTable):
        transactions = TransactionTable.from_transactions(transactions)
    n = transactions.n_rows
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = _canonical_order(transactions)
    sorted_starts = transactions.start[order]
    sorted_snis = [transactions.sni[i] for i in order]

    flags_sorted = np.zeros(n, dtype=bool)
    current_servers: set[str] = set()
    for pos in range(n):
        if pos == 0:
            flags_sorted[0] = True
            current_servers = {sorted_snis[0]}
            continue
        t0 = sorted_starts[pos]
        hi = int(np.searchsorted(sorted_starts, t0 + config.window_s, side="right"))
        burst = range(pos + 1, hi)
        n_burst = hi - (pos + 1)
        if n_burst >= config.n_min and current_servers:
            unseen = sum(1 for j in burst if sorted_snis[j] not in current_servers)
            delta = unseen / n_burst
            if delta >= config.delta_min:
                flags_sorted[pos] = True
                current_servers = set()
        current_servers.add(sorted_snis[pos])

    flags = np.zeros(n, dtype=bool)
    flags[order] = flags_sorted
    return flags


def oracle_split_sessions(
    transactions: Sequence[TlsTransaction],
    config: BoundaryConfig | None = None,
    min_transactions: int = 1,
) -> list[list[TlsTransaction]]:
    """:func:`~repro.sessions.boundary.split_sessions` over the per-row
    loop, grouping one row at a time."""
    ordered = sorted(transactions, key=transaction_sort_key)
    groups: list[list[TlsTransaction]] = []
    for txn, is_start in zip(ordered, oracle_session_starts(ordered, config)):
        if is_start and not (groups and len(groups[-1]) < min_transactions):
            groups.append([])
        groups[-1].append(txn)
    if len(groups) > 1 and len(groups[-1]) < min_transactions:
        tail = groups.pop()
        groups[-1].extend(tail)
    return groups


class SessionAccumulator:
    """One open session's buffered transaction rows (canonical order)."""

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
                raise ValueError("transactions must be added in canonical time order")
            if end > self.session_end:
                self.session_end = end
        self.n += 1
        self._starts.append(start)
        self._ends.append(end)
        self._uplinks.append(float(uplink))
        self._downlinks.append(float(downlink))

    def rows(self) -> list[tuple[float, float, float, float]]:
        """The buffered ``(start, end, uplink, downlink)`` rows."""
        return list(zip(self._starts, self._ends, self._uplinks, self._downlinks))

    def finalize(self) -> np.ndarray:
        """The session's feature vector: the one-session case of the
        score batch's :func:`session_table` kernel call."""
        if self.n == 0:
            raise ValueError("a session needs at least one TLS transaction")
        return extract_tls_table(session_table([self]), self.intervals)[0]


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


class _StreamState:
    """Mutable per-stream bookkeeping (one per active stream key)."""

    __slots__ = (
        "key",
        "pending",
        "current_servers",
        "decided_any",
        "watermark",
        "last_seen",
        "group",
        "held",
        "n_closed",
    )

    def __init__(self, key: str):
        self.key = key
        # Canonical-order buffer of undecided transactions, each a
        # (start, end, uplink, downlink, sni) tuple — tuple comparison
        # IS transaction_sort_key ordering.
        self.pending: list[tuple[float, float, float, float, str]] = []
        self.current_servers: set[str] = set()
        self.decided_any = False
        self.watermark = float("-inf")
        self.last_seen = float("-inf")
        self.group: SessionAccumulator | None = None
        self.held: SessionAccumulator | None = None
        self.n_closed = 0


class OracleStreamDetector:
    """The per-event streaming engine; same surface as
    :class:`~repro.stream.engine.StreamDetector`."""

    def __init__(self, model=None, *, config: StreamConfig | None = None):
        self.model = model
        self.config = config or StreamConfig()
        self._streams: dict[str, _StreamState] = {}
        self._now = float("-inf")
        self._score_queue: list[tuple[str, int, SessionAccumulator, str, float]] = []
        self._counts = {
            "ingested": 0,
            "scored": 0,
            "evicted": 0,
            "late_dropped": 0,
        }

    @property
    def active_streams(self) -> int:
        return len(self._streams)

    def stats(self) -> dict[str, int]:
        return {
            **self._counts,
            "active": len(self._streams),
            "pending": sum(len(st.pending) for st in self._streams.values()),
            "queued": len(self._score_queue),
        }

    def ingest(
        self,
        stream: str,
        transaction: TlsTransaction,
        *,
        now: float | None = None,
    ) -> list[StreamVerdict]:
        out: list[StreamVerdict] = []
        self._ingest_one(stream, transaction, now, out)
        self._evict_idle(out)
        self._pump_scores(out, force=False)
        return out

    def ingest_many(
        self,
        events: Iterable[tuple[str, TlsTransaction]],
        *,
        now: float | None = None,
    ) -> list[StreamVerdict]:
        out: list[StreamVerdict] = []
        for key, txn in list(events):
            self._ingest_one(key, txn, now, out)
        self._evict_idle(out)
        self._pump_scores(out, force=False)
        return out

    def flush(self, stream: str | None = None) -> list[StreamVerdict]:
        out: list[StreamVerdict] = []
        keys = [stream] if stream is not None else list(self._streams)
        for key in keys:
            st = self._streams.pop(key, None)
            if st is None:
                continue
            self._close_stream(st, reason="flush")
        self._pump_scores(out, force=True)
        return out

    # -- ingest path ----------------------------------------------------
    def _ingest_one(
        self,
        key: str,
        txn: TlsTransaction,
        now: float | None,
        out: list[StreamVerdict],
    ) -> None:
        event_time = txn.start if now is None else now
        if event_time > self._now:
            self._now = event_time
        st = self._streams.get(key)
        if st is None:
            self._evict_over_capacity(out)
            st = _StreamState(key)
            self._streams[key] = st
        else:
            del self._streams[key]
            self._streams[key] = st
        st.last_seen = self._now

        if txn.start < st.watermark:
            self._counts["late_dropped"] += 1
            if self.config.late_policy == "error":
                raise ValueError(
                    f"late transaction on stream {key!r}: start {txn.start} "
                    f"is behind the stream watermark {st.watermark}"
                )
            return
        insort(
            st.pending,
            (
                txn.start,
                txn.end,
                float(txn.uplink_bytes),
                float(txn.downlink_bytes),
                txn.sni,
            ),
        )
        if txn.start > st.watermark:
            st.watermark = txn.start
        self._counts["ingested"] += 1
        self._drain(st, force=False)

    def _drain(self, st: _StreamState, force: bool) -> None:
        """Decide every pending transaction whose burst window closed."""
        config = self.config
        window = config.boundary.window_s
        n_min = config.boundary.n_min
        delta_min = config.boundary.delta_min
        pending = st.pending
        while pending:
            head = pending[0]
            t0 = head[0]
            if not force and not (st.watermark > t0 + window):
                break
            is_start = False
            if not st.decided_any:
                is_start = True
                st.decided_any = True
                st.current_servers = {head[4]}
            else:
                limit = t0 + window
                n_burst = 0
                unseen = 0
                servers = st.current_servers
                for j in range(1, len(pending)):
                    entry = pending[j]
                    if entry[0] > limit:
                        break
                    n_burst += 1
                    if entry[4] not in servers:
                        unseen += 1
                if n_burst >= n_min and servers and unseen / n_burst >= delta_min:
                    is_start = True
                    st.current_servers = set()
                st.current_servers.add(head[4])
            self._assign(st, head, is_start)
            pending.pop(0)

    def _assign(
        self,
        st: _StreamState,
        entry: tuple[float, float, float, float, str],
        is_start: bool,
    ) -> None:
        """Place one decided transaction into its session group."""
        config = self.config
        if is_start and st.group is not None and st.group.n >= config.min_transactions:
            assert st.held is None
            st.held = st.group
            st.group = None
        if st.group is None:
            st.group = SessionAccumulator(config.intervals)
        st.group.add(entry[0], entry[1], entry[2], entry[3])
        if st.held is not None and st.group.n >= config.min_transactions:
            self._queue_score(st, st.held, reason="boundary")
            st.held = None

    # -- closing, eviction, scoring -------------------------------------
    def _close_stream(self, st: _StreamState, reason: str) -> None:
        self._drain(st, force=True)
        group, held = st.group, st.held
        st.group = st.held = None
        if group is None:
            return
        if held is not None and group.n < self.config.min_transactions:
            for row in group.rows():
                held.add(*row)
            self._queue_score(st, held, reason=reason)
            return
        if held is not None:
            self._queue_score(st, held, reason=reason)
        self._queue_score(st, group, reason=reason)

    def _evict_idle(self, out: list[StreamVerdict]) -> None:
        timeout = self.config.idle_timeout_s
        evicted = False
        while self._streams:
            key = next(iter(self._streams))
            st = self._streams[key]
            if self._now - st.last_seen <= timeout:
                break
            self._evict(key, st)
            evicted = True
        if evicted:
            self._pump_scores(out, force=True)

    def _evict_over_capacity(self, out: list[StreamVerdict]) -> None:
        evicted = False
        while len(self._streams) >= self.config.max_streams:
            key = next(iter(self._streams))
            self._evict(key, self._streams[key])
            evicted = True
        if evicted:
            self._pump_scores(out, force=True)

    def _evict(self, key: str, st: _StreamState) -> None:
        del self._streams[key]
        self._close_stream(st, reason="eviction")
        self._counts["evicted"] += 1

    def _queue_score(self, st: _StreamState, group: SessionAccumulator, reason: str) -> None:
        self._score_queue.append((st.key, st.n_closed, group, reason, self._now))
        st.n_closed += 1

    def _pump_scores(self, out: list[StreamVerdict], force: bool) -> None:
        batch = self.config.score_batch
        while self._score_queue and (force or len(self._score_queue) >= batch):
            chunk = self._score_queue[:batch]
            del self._score_queue[:batch]
            table = session_table([group for _, _, group, _, _ in chunk])
            X = extract_tls_table(table, self.config.intervals)
            categories = self.model.predict(X) if self.model is not None else None
            for i, (key, index, group, reason, decided_at) in enumerate(chunk):
                out.append(
                    StreamVerdict(
                        stream=key,
                        session_index=index,
                        n_transactions=group.n,
                        session_start=group.session_start,
                        session_end=group.session_end,
                        features=X[i],
                        category=int(categories[i]) if categories is not None else None,
                        reason=reason,
                        decided_at=decided_at,
                    )
                )
            self._counts["scored"] += len(chunk)

