"""The streaming inference engine: ingest, detect, score, evict.

:class:`StreamDetector` accepts TLS transactions one at a time (or in
micro-batches) from many concurrent streams — one stream per
``(user, service)`` pair, identified by an opaque string key — and
emits one :class:`StreamVerdict` per detected session.  Four ideas
make it equivalent to the batch pipeline while staying bounded in
latency and memory:

**One boundary decider over a per-stream row log.**  Each stream keeps
one log of its transactions in canonical sort order
(:func:`~repro.sessions.boundary.transaction_sort_key`), as columns,
and a session is a row range of that log.  The paper's
succeeding-burst heuristic inspects only the burst of transactions
starting within ``W`` seconds after a row, so the decision for the row
at ``t0`` is final as soon as the stream's watermark (largest start
time seen) strictly exceeds ``t0 + W``.  A closed-window index
advances over the log as the watermark moves.  A row whose burst holds
fewer than ``N_min`` rows cannot start a session, and with sorted
columns that is one comparison, so most rows close with no call at
all.  Only a stream's first row, a burst candidate, or the row that
releases a held session reaches
:func:`~repro.sessions.boundary.decide_starts` — the function batch
:func:`~repro.sessions.boundary.detect_session_starts` runs once per
table — and only the candidates read the running server set.

**Features at close, one columnar pass per score batch.**  A closed
session queues its rows for scoring, and each score batch is
featurized by one :func:`~repro.features.tls_features.extract_tls_table`
call over a table stacked from the batch's sessions — the kernel the
batch pipeline's columnar path uses.  Nothing is computed per event.

**Deferred release for the undersized-tail rule.**  Batch
``split_sessions`` merges a trailing undersized group backwards.  To
emit identical verdicts online, a closed session is *held* until its
successor group reaches ``min_transactions`` (at which point the
successor can never merge backwards); a stream that ends or is evicted
first merges the undersized tail into the held group, exactly like the
batch post-filter.

**Backpressure and eviction.**  Streams idle longer than
``idle_timeout_s`` (in event time) are force-finalized — every pending
transaction is decided with the data at hand — and their state is
dropped; a ``max_streams`` cap evicts the stalest streams first.
Evicted sessions still emit a final verdict (reason ``"eviction"``),
and re-ingesting an evicted stream key starts a fresh stream.

Scoring is a batched predict loop: closed sessions queue up and are
featurized and scored ``score_batch`` at a time through the model —
for the tree ensembles that is the flattened node-table traversal
(:class:`repro.ml.tree.FlatEnsemble`), whose leaf gathers are
bit-identical to walking each tree per row, and every feature is a
within-session reduction, so batching changes throughput, not
verdicts.  The counters and the ``stream.active`` gauge are updated
once per :meth:`StreamDetector.ingest_many` call, and a single
:meth:`StreamDetector.ingest` is the one-event case of that call.
Telemetry: ``stream.ingested`` / ``stream.scored`` /
``stream.evicted`` / ``stream.late_dropped`` counters, a
``stream.active`` gauge, a ``stream.decision_lag_s`` histogram
(event-time lag between a session's last activity and its verdict),
and ``stream.ingest`` / ``stream.score`` spans around the micro-batch
hot paths (``stream.score`` records the ``sessions`` and
``transactions`` its batch featurized).

Late data: an arrival with ``start`` strictly below its stream's
watermark could retroactively change an already-emitted boundary
decision, so it is counted (``stream.late_dropped``) and dropped by
default (``late_policy="drop"``); ``late_policy="error"`` rejects the
whole micro-batch before any of it changes the engine's state.
In-order feeds — every replayed corpus — never trigger this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import telemetry
from repro.features.tls_features import TEMPORAL_INTERVALS, extract_tls_table
from repro.sessions.boundary import BoundaryConfig, decide_starts, transaction_sort_key
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable

__all__ = ["StreamConfig", "StreamDetector", "StreamVerdict"]


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming engine.

    Attributes
    ----------
    boundary:
        Online boundary-heuristic parameters (the paper's W/N_min/δ_min).
    min_transactions:
        Sessions smaller than this merge into their predecessor —
        identical to the batch ``split_sessions`` post-filter.
    idle_timeout_s:
        Streams idle this long (event time) are evicted with a final
        verdict.
    max_streams:
        Concurrent-stream cap; beyond it the stalest streams are
        evicted first (backpressure).
    score_batch:
        Closed sessions are scored through the model in batches of
        this size (the last, possibly partial batch flushes on demand).
    intervals:
        Temporal-interval grid of the feature schema.
    late_policy:
        ``"drop"`` (count and skip) or ``"error"`` (reject the whole
        micro-batch, unapplied) for arrivals behind their stream's
        watermark.
    """

    boundary: BoundaryConfig = field(default_factory=BoundaryConfig)
    min_transactions: int = 5
    idle_timeout_s: float = 900.0
    max_streams: int = 10_000
    score_batch: int = 64
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS
    late_policy: str = "drop"

    def __post_init__(self) -> None:
        if self.min_transactions < 1:
            raise ValueError("min_transactions must be >= 1")
        if self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        if self.max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        if self.score_batch < 1:
            raise ValueError("score_batch must be >= 1")
        if not self.intervals:
            raise ValueError("intervals must be non-empty")
        if self.late_policy not in ("drop", "error"):
            raise ValueError("late_policy must be 'drop' or 'error'")


@dataclass(frozen=True, eq=False)
class StreamVerdict:
    """One scored session emitted by the engine.

    Attributes
    ----------
    stream:
        The stream key the session belongs to.
    session_index:
        Zero-based session counter within the stream's lifetime (a
        re-ingested evicted stream restarts at 0).
    n_transactions:
        Transactions grouped into the session.
    session_start, session_end:
        Event-time extent of the session.
    features:
        The session's feature vector (``feature_names(intervals)``
        schema), bit-identical to the batch extractor.
    category:
        Predicted QoE class, or ``None`` when the engine has no model.
    reason:
        ``"boundary"`` (a successor session started), ``"flush"``
        (explicit flush) or ``"eviction"`` (idle timeout / capacity).
    decided_at:
        Engine event time when the session was closed.
    """

    stream: str
    session_index: int
    n_transactions: int
    session_start: float
    session_end: float
    features: np.ndarray
    category: int | None
    reason: str
    decided_at: float


class _StreamState:
    """One active stream: its canonical row log and the indices into it.

    ``starts``, ``snis`` and ``rows`` are the log's columns, sorted by
    :func:`~repro.sessions.boundary.transaction_sort_key`.  Rows below
    ``closed`` are decided.  The open session is rows ``group ..
    closed - 1``; a held session is rows ``held .. group - 1`` (``held``
    is ``-1`` when none is held).  ``servers`` holds the SNIs of the
    running session's rows below ``seen``.  ``mark`` is the next row
    that must reach the decider even if it is no burst candidate: ``0``
    for a new stream's first row, the row that releases the held session
    while one is held, else ``-1``.  Rows below the open session are
    dropped once no session needs them, and the indices are rebased.
    """

    __slots__ = (
        "key",
        "starts",
        "snis",
        "rows",
        "servers",
        "seen",
        "closed",
        "group",
        "held",
        "mark",
        "watermark",
        "last_seen",
        "n_closed",
    )

    def __init__(self, key: str):
        self.key = key
        self.starts: list[float] = []
        self.snis: list[str] = []
        self.rows: list[TlsTransaction] = []
        self.servers: set[str] = set()
        self.seen = 0
        self.closed = 0
        self.group = 0
        self.held = -1
        self.mark = 0
        self.watermark = float("-inf")
        self.last_seen = float("-inf")
        self.n_closed = 0


class StreamDetector:
    """Online session detection and QoE scoring over transaction feeds.

    Parameters
    ----------
    model:
        Optional trained estimator (``predict(X) -> categories``); when
        omitted, verdicts carry ``category=None``.
    config:
        :class:`StreamConfig` (paper defaults when omitted).

    Usage::

        detector = StreamDetector(model, config=StreamConfig())
        for key, txn in event_feed:        # or ingest_many(micro_batch)
            for verdict in detector.ingest(key, txn):
                handle(verdict)
        for verdict in detector.flush():   # end of feed
            handle(verdict)

    Replaying a corpus through ``ingest`` + ``flush`` emits exactly the
    verdicts of the batch pipeline (``split_sessions`` per stream →
    feature extraction → ``model.predict``), which the golden tests
    enforce.
    """

    def __init__(self, model=None, *, config: StreamConfig | None = None):
        self.model = model
        self.config = config or StreamConfig()
        self._streams: dict[str, _StreamState] = {}
        self._now = float("-inf")
        # Closed sessions awaiting the batched predict loop:
        # (stream, session_index, rows, reason, decided_at).
        self._score_queue: list[
            tuple[str, int, list[TlsTransaction], str, float]
        ] = []
        self._counts = {
            "ingested": 0,
            "scored": 0,
            "evicted": 0,
            "late_dropped": 0,
        }

    # -- public surface -------------------------------------------------
    @property
    def active_streams(self) -> int:
        """Streams currently holding state."""
        return len(self._streams)

    def stats(self) -> dict[str, int]:
        """Lifetime counters plus current buffer occupancy."""
        return {
            **self._counts,
            "active": len(self._streams),
            "pending": sum(len(st.starts) - st.closed for st in self._streams.values()),
            "queued": len(self._score_queue),
        }

    def ingest(
        self,
        stream: str,
        transaction: TlsTransaction,
        *,
        now: float | None = None,
    ) -> list[StreamVerdict]:
        """Feed one transaction; return any verdicts it triggered."""
        return self.ingest_many([(stream, transaction)], now=now)

    def ingest_many(
        self,
        events: Iterable[tuple[str, TlsTransaction]],
        *,
        now: float | None = None,
    ) -> list[StreamVerdict]:
        """Feed a micro-batch of ``(stream, transaction)`` events.

        Under ``late_policy="error"`` a batch holding a late arrival
        raises before any of its events changes the engine's state.
        """
        out: list[StreamVerdict] = []
        events = list(events)
        with telemetry.span("stream.ingest", events=len(events)):
            if self.config.late_policy == "error":
                self._reject_late(events)
            self._ingest(events, now, out)
            self._evict_idle(out)
            self._pump_scores(out, force=False)
        return out

    def flush(self, stream: str | None = None) -> list[StreamVerdict]:
        """Close open sessions (one stream, or all) and score them.

        Every pending transaction is decided with the data at hand and
        the final session of each flushed stream is emitted with reason
        ``"flush"``.  The engine stays usable afterwards; flushed
        streams restart from scratch on their next event.
        """
        out: list[StreamVerdict] = []
        keys = [stream] if stream is not None else list(self._streams)
        for key in keys:
            st = self._streams.pop(key, None)
            if st is None:
                continue
            self._close_stream(st, reason="flush")
        telemetry.gauge("stream.active", len(self._streams))
        self._pump_scores(out, force=True)
        return out

    # -- ingest path ----------------------------------------------------
    def _reject_late(self, events: list[tuple[str, TlsTransaction]]) -> None:
        """Raise on the batch's first arrival behind its stream's
        watermark, counting the batch's earlier events."""
        watermarks: dict[str, float] = {}
        for key, txn in events:
            watermark = watermarks.get(key)
            if watermark is None:
                st = self._streams.get(key)
                watermark = st.watermark if st is not None else float("-inf")
            if txn.start < watermark:
                raise ValueError(
                    f"late transaction on stream {key!r}: start {txn.start} "
                    f"is behind the stream watermark {watermark}"
                )
            watermarks[key] = txn.start

    def _ingest(
        self,
        events: list[tuple[str, TlsTransaction]],
        now: float | None,
        out: list[StreamVerdict],
    ) -> None:
        """Append each event to its stream's log and decide the rows
        whose burst window it closes.

        Most rows close on the fast path: they are no burst candidate
        (``starts[c + n_min] > starts[c] + W``, the decider's own
        filter) and no ``mark``, so nothing but the index moves.  The
        rest go through :meth:`_settle`.  A decision is final once the
        watermark strictly passes ``start + W``: no later arrival can
        join that row's burst.
        """
        streams = self._streams
        window = self.config.boundary.window_s
        n_min = self.config.boundary.n_min
        clock = self._now
        if now is not None and events and now > clock:
            self._now = clock = now
        track = now is None
        late = 0
        created = 0
        for key, txn in events:
            start = txn.start
            if track and start > clock:
                self._now = clock = start
            # Re-inserting keeps the stream dict ordered by recency, so
            # eviction scans only the stale front.
            st = streams.pop(key, None)
            if st is None:
                self._evict_over_capacity(out)
                st = _StreamState(key)
                created += 1
            streams[key] = st
            st.last_seen = clock
            watermark = st.watermark
            if start > watermark:
                st.watermark = start
                starts = st.starts
                starts.append(start)
                st.snis.append(txn.sni)
                st.rows.append(txn)
                c = st.closed
                if start > starts[c] + window:
                    # The new row itself never closes (W > 0), so the
                    # scan stops inside the log.
                    n = len(starts)
                    mark = st.mark
                    while True:
                        if c == mark or (
                            c + n_min < n and starts[c + n_min] <= starts[c] + window
                        ):
                            c = self._settle(st, c + 1)
                            n = len(starts)
                            mark = st.mark
                        else:
                            c += 1
                        if not start > starts[c] + window:
                            break
                    st.closed = c
            elif start == watermark:
                self._insert_tie(st, txn)
            else:
                # Deciding positions behind the watermark is already
                # done; folding this transaction in could rewrite an
                # emitted boundary decision.
                late += 1
        ingested = len(events) - late
        if ingested:
            self._counts["ingested"] += ingested
            telemetry.count("stream.ingested", ingested)
        if late:
            self._counts["late_dropped"] += late
            telemetry.count("stream.late_dropped", late)
        if created:
            telemetry.gauge("stream.active", len(streams))

    def _insert_tie(self, st: _StreamState, txn: TlsTransaction) -> None:
        """Insert an arrival that starts at its stream's watermark at its
        canonical place among the undecided rows of equal start."""
        key = transaction_sort_key(txn)
        rows = st.rows
        at = len(rows)
        while at > st.closed and transaction_sort_key(rows[at - 1]) > key:
            at -= 1
        rows.insert(at, txn)
        st.starts.insert(at, txn.start)
        st.snis.insert(at, txn.sni)

    def _settle(self, st: _StreamState, hi: int) -> int:
        """Decide the stream's rows up to ``hi - 1`` and group them.

        Applies the ``min_transactions`` rules online: a start row opens
        a new session only if the open one already holds
        ``min_transactions`` rows, else it merges into it; the closed
        session is held until its successor reaches
        ``min_transactions`` rows, since until then an undersized tail
        could still merge backwards.  Returns ``hi`` in the log's
        numbering after the rows no session needs are dropped.
        """
        min_tx = self.config.min_transactions
        flagged = decide_starts(
            st.starts, st.snis, st.seen, hi, st.servers, self.config.boundary
        )
        dead = 0
        for row in flagged + [hi]:
            if st.held >= 0 and st.group + min_tx <= row:
                self._queue_score(st, st.rows[st.held : st.group], reason="boundary")
                st.held = -1
                dead = st.group
            if row < hi and row - st.group >= min_tx:
                st.held, st.group = st.group, row
        if dead:
            del st.starts[:dead], st.snis[:dead], st.rows[:dead]
            hi -= dead
            st.group -= dead
            if st.held >= 0:
                st.held -= dead
        st.seen = st.closed = hi
        st.mark = st.group + min_tx - 1 if st.held >= 0 else -1
        return hi

    # -- closing, eviction, scoring -------------------------------------
    def _close_stream(self, st: _StreamState, reason: str) -> None:
        """Force-decide and enqueue everything a departing stream holds."""
        n = self._settle(st, len(st.starts))
        rows, group, held = st.rows, st.group, st.held
        if held >= 0 and n - group < self.config.min_transactions:
            # Trailing undersized group merges backwards, exactly like
            # the batch split_sessions post-filter.
            self._queue_score(st, rows[held:], reason=reason)
            return
        if held >= 0:
            self._queue_score(st, rows[held:group], reason=reason)
        if n > group:
            self._queue_score(st, rows[group:], reason=reason)

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
        telemetry.count("stream.evicted")
        telemetry.gauge("stream.active", len(self._streams))

    def _queue_score(
        self, st: _StreamState, rows: list[TlsTransaction], reason: str
    ) -> None:
        self._score_queue.append((st.key, st.n_closed, rows, reason, self._now))
        st.n_closed += 1

    def _pump_scores(self, out: list[StreamVerdict], force: bool) -> None:
        """Score queued sessions through the model, a batch at a time."""
        batch = self.config.score_batch
        while self._score_queue and (force or len(self._score_queue) >= batch):
            chunk = self._score_queue[:batch]
            del self._score_queue[:batch]
            with telemetry.span("stream.score", sessions=len(chunk)) as sp:
                table = TransactionTable.from_sessions([rows for _, _, rows, _, _ in chunk])
                sp.set(transactions=table.n_rows)
                X = extract_tls_table(table, self.config.intervals)
                categories = (
                    self.model.predict(X) if self.model is not None else None
                )
                lo = table.offsets[:-1]
                counts = table.counts.tolist()
                firsts = table.start[lo].tolist()
                lasts = np.maximum.reduceat(table.end, lo).tolist()
                for i, (key, index, _, reason, decided_at) in enumerate(chunk):
                    out.append(
                        StreamVerdict(
                            stream=key,
                            session_index=index,
                            n_transactions=counts[i],
                            session_start=firsts[i],
                            session_end=lasts[i],
                            features=X[i],
                            category=(
                                int(categories[i]) if categories is not None else None
                            ),
                            reason=reason,
                            decided_at=decided_at,
                        )
                    )
                    telemetry.observe(
                        "stream.decision_lag_s", max(decided_at - lasts[i], 0.0)
                    )
                self._counts["scored"] += len(chunk)
                telemetry.count("stream.scored", len(chunk))


def batch_pipeline_verdicts(
    streams: Mapping[str, Sequence[TlsTransaction]],
    model=None,
    *,
    config: StreamConfig | None = None,
) -> dict[str, list[dict]]:
    """The batch pipeline's answer for each stream, for equivalence checks.

    Runs ``split_sessions`` → per-session feature extraction → one
    ``model.predict`` per stream over the same transactions a
    :class:`StreamDetector` would ingest, returning per-stream session
    summaries comparable with :class:`StreamVerdict` fields.  Features
    come from the per-session reference
    :func:`~repro.features.tls_features.extract_tls_features`, not the
    columnar kernel the detector uses, so an equivalence check compares
    the stream against an independent implementation.
    """
    from repro.features.tls_features import extract_tls_features
    from repro.sessions.boundary import split_sessions

    config = config or StreamConfig()
    results: dict[str, list[dict]] = {}
    for key, transactions in streams.items():
        groups = split_sessions(
            list(transactions),
            config.boundary,
            min_transactions=config.min_transactions,
        )
        sessions = []
        if groups:
            X = np.stack(
                [extract_tls_features(g, intervals=config.intervals) for g in groups]
            )
            categories = model.predict(X) if model is not None else None
            for i, group in enumerate(groups):
                sessions.append(
                    {
                        "stream": key,
                        "session_index": i,
                        "n_transactions": len(group),
                        "session_start": min(t.start for t in group),
                        "session_end": max(t.end for t in group),
                        "features": X[i],
                        "category": (
                            int(categories[i]) if categories is not None else None
                        ),
                    }
                )
        results[key] = sessions
    return results
