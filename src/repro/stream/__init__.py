"""Streaming inference: online session detection and QoE scoring.

The batch pipeline collects a whole corpus, then splits, extracts and
cross-validates.  An ISP deployment (the paper's operational pitch)
instead consumes an unbounded feed of TLS transactions from many
concurrent ``(user, service)`` streams and must emit per-session QoE
verdicts with bounded latency and memory.  This package is that
engine:

* :mod:`repro.stream.engine` — :class:`StreamDetector`, the ingest
  engine: one canonical row log per stream, in which a session is a
  row range; the W-lookahead online boundary decisions, made by the
  decider batch detection uses
  (:func:`~repro.sessions.boundary.decide_starts`) and reached only by
  burst candidates; idle-timeout / capacity eviction; and a batched
  predict loop that featurizes each score batch with the shared
  columnar kernel of the 38 TLS features.
* :mod:`repro.stream.replay` — corpus-to-event-stream replay used by
  the ``python -m repro stream`` CLI, the golden-equivalence tests and
  the benchmarks.

Golden contract: replaying a corpus through :class:`StreamDetector`
and flushing yields byte-identical session groups, feature vectors and
model verdicts to the batch path (``split_sessions`` →
``extract_tls_features`` → ``model.predict``).
"""

from repro.stream.engine import StreamConfig, StreamDetector, StreamVerdict

__all__ = [
    "StreamConfig",
    "StreamDetector",
    "StreamVerdict",
]
