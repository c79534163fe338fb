"""Replay corpora and workloads as timestamped event streams.

The streaming engine consumes ``(stream_key, TlsTransaction)`` events
in timestamp order.  This module builds such feeds from the three data
sources the repo already has — back-to-back workload streams, saved
:class:`~repro.collection.dataset.Dataset` corpora, and a synthetic
load generator for the concurrency benchmarks — plus the
equivalence check the CLI ``--batch-check`` flag and CI use to prove
streaming verdicts equal the batch pipeline's.

Corpora replay block by block: :func:`dataset_streams` reads each
block's TLS table alone
(:meth:`~repro.collection.dataset.Dataset.iter_tables`), so replaying
a stored corpus decodes one shard's TLS slab at a time and builds no
session records; each row becomes one already-shifted
:class:`~repro.tlsproxy.records.TlsTransaction` whose ``sni`` is the
table's shared host string.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.sessions.boundary import transaction_sort_key
from repro.stream.engine import StreamDetector, StreamVerdict, batch_pipeline_verdicts
from repro.tlsproxy.records import TlsTransaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.collection.dataset import Dataset

__all__ = [
    "demo_streams",
    "dataset_streams",
    "interleave",
    "synthetic_events",
    "replay",
    "check_batch_equivalence",
]


def interleave(
    streams: Mapping[str, Sequence[TlsTransaction]],
) -> list[tuple[str, TlsTransaction]]:
    """Merge per-stream transaction lists into one time-ordered feed.

    Events are globally ordered by the canonical transaction sort key,
    so each stream's subsequence arrives in order (no late drops).
    """
    events = [
        (key, txn) for key, txns in streams.items() for txn in txns
    ]
    events.sort(key=lambda e: transaction_sort_key(e[1]))
    return events


def demo_streams(
    service: str,
    n_streams: int,
    sessions_per_stream: int,
    seed: int = 0,
) -> dict[str, list[TlsTransaction]]:
    """Per-user back-to-back workload streams (one key per user)."""
    from repro.sessions.workload import back_to_back_stream

    if n_streams < 1:
        raise ValueError("need at least one stream")
    streams = {}
    for user in range(n_streams):
        merged = back_to_back_stream(
            service, sessions_per_stream, seed=seed + 1000 * user
        )
        streams[f"user{user:03d}/{service}"] = list(merged.transactions)
    return streams


def dataset_streams(
    dataset: Dataset,
    n_streams: int,
    gap_s: float = 4.0,
) -> dict[str, list[TlsTransaction]]:
    """Distribute a corpus's sessions round-robin onto user streams.

    Each stream's sessions are placed back-to-back on its own timeline
    (session ``i + 1`` starts ``gap_s`` after session ``i``'s last
    transaction ends), reproducing the merged view a proxy would see
    per user.
    """
    if n_streams < 1:
        raise ValueError("need at least one stream")
    if gap_s < 0:
        raise ValueError("gap must be non-negative")
    streams: dict[str, list[TlsTransaction]] = {}
    cursors: dict[str, float] = {}
    i = 0
    for table in dataset.iter_tables():
        for j in range(table.n_sessions):
            key = f"user{i % n_streams:03d}/{dataset.service}"
            i += 1
            lo, hi = table.session_rows(j)
            if lo == hi:
                continue
            # Shift the session's columns, then build one record per row.
            shift = cursors.get(key, 0.0) - float(table.start[lo:hi].min())
            shifted = table.transactions(j, shift=shift)
            streams.setdefault(key, []).extend(shifted)
            cursors[key] = max(t.end for t in shifted) + gap_s
    return streams


def synthetic_events(
    n_streams: int = 1000,
    sessions_per_stream: int = 2,
    transactions_per_session: int = 12,
    seed: int = 0,
    short_stream_every: int = 0,
) -> tuple[list[tuple[str, TlsTransaction]], dict[str, int]]:
    """A cheap high-concurrency workload for the streaming benchmarks.

    Every stream carries ``sessions_per_stream`` sessions whose opening
    burst hits fresh per-session edge hostnames (so the boundary
    heuristic fires); all streams share one timeline, so with the
    default shape 1k+ streams are concurrently active.  When
    ``short_stream_every`` is ``k > 0``, every ``k``-th stream carries
    only its first session — those streams go idle early and exercise
    the eviction path deterministically.

    Returns ``(events, expectations)`` where ``expectations`` holds the
    exact ``events`` / ``sessions`` / ``short_streams`` counts for
    telemetry reconciliation.
    """
    rng = np.random.default_rng(seed)
    events: list[tuple[str, TlsTransaction]] = []
    n_sessions = 0
    n_short = 0
    session_spacing = 60.0
    for u in range(n_streams):
        key = f"user{u:04d}"
        short = short_stream_every > 0 and u % short_stream_every == 0
        sessions = 1 if short else sessions_per_stream
        n_short += int(short)
        n_sessions += sessions
        for s in range(sessions):
            base = s * session_spacing + float(rng.uniform(0.0, 1.0))
            hosts = (
                f"www.svc{u % 3}.example",
                f"edge-{u}-{s}a.cdn.example",
                f"edge-{u}-{s}b.cdn.example",
            )
            for i in range(transactions_per_session):
                start = base + (0.4 * i if i < 3 else 1.2 + 3.5 * (i - 2))
                events.append(
                    (
                        key,
                        TlsTransaction(
                            start=start,
                            end=start + float(rng.uniform(0.5, 2.5)),
                            uplink_bytes=int(rng.integers(200, 2000)),
                            downlink_bytes=int(rng.integers(20_000, 400_000)),
                            sni=hosts[i] if i < 3 else hosts[1],
                        ),
                    )
                )
    events.sort(key=lambda e: transaction_sort_key(e[1]))
    expectations = {
        "events": len(events),
        "sessions": n_sessions,
        "short_streams": n_short,
    }
    return events, expectations


def replay(
    detector: StreamDetector,
    events: Sequence[tuple[str, TlsTransaction]],
    micro_batch: int = 256,
) -> list[StreamVerdict]:
    """Drive a feed through the detector in micro-batches and flush."""
    if micro_batch < 1:
        raise ValueError("micro_batch must be >= 1")
    verdicts: list[StreamVerdict] = []
    for lo in range(0, len(events), micro_batch):
        verdicts.extend(detector.ingest_many(events[lo : lo + micro_batch]))
    verdicts.extend(detector.flush())
    return verdicts


def check_batch_equivalence(
    streams: Mapping[str, Sequence[TlsTransaction]],
    verdicts: Sequence[StreamVerdict],
    model=None,
    *,
    config=None,
) -> None:
    """Raise ``AssertionError`` unless streaming verdicts equal batch.

    Compares, per stream and session: transaction counts, session
    extents, bit-identical feature vectors, and model categories.
    """
    batch = batch_pipeline_verdicts(streams, model, config=config)
    streamed: dict[str, list[StreamVerdict]] = {key: [] for key in streams}
    for v in verdicts:
        streamed.setdefault(v.stream, []).append(v)
    for key in streamed:
        streamed[key].sort(key=lambda v: v.session_index)
    for key, expected in batch.items():
        got = streamed.get(key, [])
        if len(got) != len(expected):
            raise AssertionError(
                f"stream {key!r}: streaming emitted {len(got)} sessions, "
                f"batch pipeline found {len(expected)}"
            )
        for v, e in zip(got, expected):
            if v.n_transactions != e["n_transactions"]:
                raise AssertionError(
                    f"stream {key!r} session {e['session_index']}: "
                    f"{v.n_transactions} streamed transactions vs "
                    f"{e['n_transactions']} batch"
                )
            if v.session_start != e["session_start"] or (
                v.session_end != e["session_end"]
            ):
                raise AssertionError(
                    f"stream {key!r} session {e['session_index']}: extent "
                    "mismatch between streaming and batch"
                )
            if not np.array_equal(v.features, e["features"]):
                raise AssertionError(
                    f"stream {key!r} session {e['session_index']}: feature "
                    "vectors are not bit-identical"
                )
            if v.category != e["category"]:
                raise AssertionError(
                    f"stream {key!r} session {e['session_index']}: category "
                    f"{v.category} streamed vs {e['category']} batch"
                )
