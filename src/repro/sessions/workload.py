"""Back-to-back viewing workloads.

Builds the evaluation stream for the session-identification experiment:
one user watches several videos from the same service consecutively on
the same network.  Each session is simulated independently on its own
zero-based clock and then placed on a shared timeline where session
``i + 1`` begins the moment session ``i``'s playback ends (plus an
optional browse gap) — while session ``i``'s TLS connections are still
lingering toward their idle timeouts, producing exactly the overlap
that defeats timeout-based splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.collection.harness import CollectionConfig, collect_session
from repro.has.services import SessionProfile
from repro.qoe.labels import compute_labels
from repro.tlsproxy.records import TlsTransaction
from repro.workloads import get_profile

__all__ = ["MergedStream", "back_to_back_stream"]


@dataclass(frozen=True)
class MergedStream:
    """A proxy's view of back-to-back sessions plus ground truth.

    Attributes
    ----------
    transactions:
        All TLS transactions, sorted by start time.
    session_of:
        True session index of each transaction.
    is_new:
        Ground truth: whether each transaction is the chronologically
        first of its session (the targets of Table 5).
    offsets:
        Absolute start time of each session on the shared timeline.
    true_combined_qoe:
        Ground-truth combined-QoE category of each session.
    """

    transactions: tuple[TlsTransaction, ...]
    session_of: np.ndarray
    is_new: np.ndarray
    offsets: tuple[float, ...]
    true_combined_qoe: tuple[int, ...] = ()

    @property
    def n_sessions(self) -> int:
        """Number of sessions merged into the stream."""
        return len(self.offsets)

    def __len__(self) -> int:
        return len(self.transactions)


def back_to_back_stream(
    service: str | SessionProfile,
    n_sessions: int,
    seed: int = 0,
    browse_gap_s: float = 4.0,
    config: CollectionConfig | None = None,
    scenario=None,
) -> MergedStream:
    """Simulate ``n_sessions`` consecutive sessions of one user.

    All sessions share one bandwidth trace (same network) and the
    service's catalog; watch durations vary per session.  This is the
    paper's "extreme case" evaluation: every boundary is back-to-back.
    ``service`` is a profile or its name (HAS or live); every session
    after the first is a warm start, which an RTC profile rejects with
    a ``ValueError``.

    ``scenario`` (a name or :class:`~repro.net.scenarios.Scenario`)
    streams every session over the same impairment scenario — each
    session still gets fresh stage instances, matching the per-session
    semantics of corpus collection.
    """
    if n_sessions < 1:
        raise ValueError("need at least one session")
    if browse_gap_s < 0:
        raise ValueError("browse gap must be non-negative")
    profile = service if isinstance(service, SessionProfile) else get_profile(service)
    config = config or CollectionConfig()
    if scenario is not None:
        config = replace(config, scenario=scenario)
    rng = np.random.default_rng(seed)
    catalog = profile.make_catalog(seed=config.catalog_seed)
    trace = config.sample_trace(rng)

    per_session: list[list[TlsTransaction]] = []
    offsets: list[float] = []
    labels: list[int] = []
    cursor = 0.0
    for i in range(n_sessions):
        session = collect_session(
            profile,
            catalog.sample(rng),
            rng,
            trace=trace,
            config=config,
            warm_start=i > 0,
        )
        per_session.append(session.tls_transactions)
        offsets.append(cursor)
        labels.append(compute_labels(session, profile).combined)
        cursor += session.session_end + browse_gap_s

    # Shift sessions onto the shared timeline, keeping ground truth
    # attached to each transaction through the sort.
    tagged = [
        (txn.shifted(offset), sid)
        for sid, (stream, offset) in enumerate(zip(per_session, offsets))
        for txn in stream
    ]
    tagged.sort(key=lambda pair: (pair[0].start, pair[0].end))
    merged = [pair[0] for pair in tagged]
    session_of = np.array([pair[1] for pair in tagged], dtype=np.int64)
    is_new = np.zeros(len(merged), dtype=bool)
    seen: set[int] = set()
    for i, sid in enumerate(session_of):
        if int(sid) not in seen:
            is_new[i] = True
            seen.add(int(sid))
    return MergedStream(
        transactions=tuple(merged),
        session_of=session_of,
        is_new=is_new,
        offsets=tuple(offsets),
        true_combined_qoe=tuple(labels),
    )
