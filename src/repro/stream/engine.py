"""The streaming inference engine: ingest, detect, score, evict.

:class:`StreamDetector` accepts TLS transactions one at a time (or in
micro-batches) from many concurrent streams — one stream per
``(user, service)`` pair, identified by an opaque string key — and
emits one :class:`StreamVerdict` per detected session.  Four ideas
make it equivalent to the batch pipeline while staying bounded in
latency and memory:

**Watermark-gated boundary decisions.**  The paper's succeeding-burst
heuristic (:mod:`repro.sessions.boundary`) inspects only the burst of
transactions starting within ``W`` seconds after a candidate, so a
decision for the transaction at ``t0`` is final as soon as the
stream's watermark (largest start time seen) strictly exceeds
``t0 + W``.  Pending transactions are buffered in canonical sort order
and decided left to right; the running ``current_servers`` set then
evolves exactly as in :func:`detect_session_starts`.

**Features at close, one columnar pass per score batch.**  Decided
transactions are appended to the open session's
:class:`~repro.stream.features.SessionAccumulator`, a row buffer that
computes nothing per event.  Closed sessions queue for scoring, and
each score batch is featurized by one
:func:`~repro.features.tls_features.extract_tls_table` call over a
table stacked from the batch's buffers — the kernel the batch
pipeline's columnar path uses.

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
verdicts.  Telemetry: ``stream.ingested`` / ``stream.scored`` /
``stream.evicted`` / ``stream.late_dropped`` counters, a
``stream.active`` gauge, a ``stream.decision_lag_s`` histogram
(event-time lag between a session's last activity and its verdict),
and ``stream.ingest`` / ``stream.score`` spans around the micro-batch
hot paths (``stream.score`` records the ``sessions`` and
``transactions`` its batch featurized).

Late data: an arrival with ``start`` strictly below its stream's
watermark could retroactively change an already-emitted boundary
decision, so it is counted (``stream.late_dropped``) and dropped by
default (``late_policy="drop"``); ``late_policy="error"`` raises
instead.  In-order feeds — every replayed corpus — never trigger this.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import telemetry
from repro.features.tls_features import TEMPORAL_INTERVALS, extract_tls_table
from repro.sessions.boundary import BoundaryConfig
from repro.stream.features import SessionAccumulator, session_table
from repro.tlsproxy.records import TlsTransaction

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
        ``"drop"`` (count and skip) or ``"error"`` for arrivals behind
        their stream's watermark.
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
        # Closed sessions awaiting the batched predict loop.
        self._score_queue: list[tuple[str, int, SessionAccumulator, str, float]] = []
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
        """Feed one transaction; return any verdicts it triggered."""
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
        """Feed a micro-batch of ``(stream, transaction)`` events."""
        out: list[StreamVerdict] = []
        events = list(events)
        with telemetry.span("stream.ingest", events=len(events)):
            for key, txn in events:
                self._ingest_one(key, txn, now, out)
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
            telemetry.gauge("stream.active", len(self._streams))
        else:
            # Keep the stream dict ordered by recency so eviction scans
            # only the stale front.
            del self._streams[key]
            self._streams[key] = st
        st.last_seen = self._now

        if txn.start < st.watermark:
            # Deciding positions behind the watermark is already done;
            # folding this transaction in could rewrite an emitted
            # boundary decision.
            self._counts["late_dropped"] += 1
            telemetry.count("stream.late_dropped")
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
        telemetry.count("stream.ingested")
        self._drain(st, force=False)

    def _drain(self, st: _StreamState, force: bool) -> None:
        """Decide every pending transaction whose burst window closed.

        Mirrors the batch heuristic exactly: pending transactions are
        decided in canonical order once the watermark strictly passes
        ``start + W`` (with ``force``, immediately — flush/eviction).
        """
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
        """Place one decided transaction into its session group,
        applying the ``min_transactions`` merge rules online."""
        config = self.config
        if (
            is_start
            and st.group is not None
            and st.group.n >= config.min_transactions
        ):
            # The predecessor can only change again via the trailing
            # undersized-tail merge, so hold it until the new group is
            # irrevocably a session of its own.
            if st.held is not None:  # pragma: no cover - invariant guard
                self._queue_score(st, st.held, reason="boundary")
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
        """Force-decide and enqueue everything a departing stream holds."""
        self._drain(st, force=True)
        group, held = st.group, st.held
        st.group = st.held = None
        if group is not None and group.n > 0:
            if held is not None and group.n < self.config.min_transactions:
                # Trailing undersized group merges backwards, exactly
                # like the batch split_sessions post-filter.
                for row in group.rows():
                    held.add(*row)
                self._queue_score(st, held, reason=reason)
                return
            if held is not None:
                self._queue_score(st, held, reason=reason)
            self._queue_score(st, group, reason=reason)
        elif held is not None:  # pragma: no cover - group implies held
            self._queue_score(st, held, reason=reason)

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
        self, st: _StreamState, group: SessionAccumulator, reason: str
    ) -> None:
        self._score_queue.append((st.key, st.n_closed, group, reason, self._now))
        st.n_closed += 1

    def _pump_scores(self, out: list[StreamVerdict], force: bool) -> None:
        """Score queued sessions through the model, a batch at a time."""
        batch = self.config.score_batch
        while self._score_queue and (force or len(self._score_queue) >= batch):
            chunk = self._score_queue[:batch]
            del self._score_queue[:batch]
            with telemetry.span("stream.score", sessions=len(chunk)) as sp:
                table = session_table([group for _, _, group, _, _ in chunk])
                sp.set(transactions=table.n_rows)
                X = extract_tls_table(table, self.config.intervals)
                categories = (
                    self.model.predict(X) if self.model is not None else None
                )
                for i, (key, index, group, reason, decided_at) in enumerate(chunk):
                    out.append(
                        StreamVerdict(
                            stream=key,
                            session_index=index,
                            n_transactions=group.n,
                            session_start=group.session_start,
                            session_end=group.session_end,
                            features=X[i],
                            category=(
                                int(categories[i]) if categories is not None else None
                            ),
                            reason=reason,
                            decided_at=decided_at,
                        )
                    )
                    telemetry.observe(
                        "stream.decision_lag_s",
                        max(decided_at - group.session_end, 0.0),
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
