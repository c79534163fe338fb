"""Streaming inference: online session detection and QoE scoring.

The batch pipeline collects a whole corpus, then splits, extracts and
cross-validates.  An ISP deployment (the paper's operational pitch)
instead consumes an unbounded feed of TLS transactions from many
concurrent ``(user, service)`` streams and must emit per-session QoE
verdicts with bounded latency and memory.  This package is that
engine:

* :mod:`repro.stream.features` — :class:`SessionAccumulator`, an open
  session's row buffer, and :func:`~repro.stream.features.session_table`,
  which stacks closed sessions into one table for the shared columnar
  kernel of the 38 TLS features.
* :mod:`repro.stream.engine` — :class:`StreamDetector`, the ingest
  engine: per-stream pending buffers, the W-lookahead online boundary
  heuristic, idle-timeout / capacity eviction, and a batched predict
  loop over a trained model.
* :mod:`repro.stream.replay` — corpus-to-event-stream replay used by
  the ``python -m repro stream`` CLI, the golden-equivalence tests and
  the benchmarks.

Golden contract: replaying a corpus through :class:`StreamDetector`
and flushing yields byte-identical session groups, feature vectors and
model verdicts to the batch path (``split_sessions`` →
``extract_tls_features`` → ``model.predict``).
"""

from repro.stream.engine import StreamConfig, StreamDetector, StreamVerdict
from repro.stream.features import SessionAccumulator

__all__ = [
    "SessionAccumulator",
    "StreamConfig",
    "StreamDetector",
    "StreamVerdict",
]
