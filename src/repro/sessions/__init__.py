"""Session identification from TLS transaction streams (paper §4.2).

When a user watches videos back-to-back, TLS connections from the
previous session linger past its end (idle timeouts), so a
timeout-based splitter sees one giant session.  The paper's heuristic
instead marks a transaction as the start of a *new* session when (i) it
is part of a burst of transaction arrivals and (ii) most of that burst
goes to servers not yet seen in the current session.
"""

from repro.sessions.boundary import (
    BoundaryConfig,
    detect_session_starts,
    evaluate_boundary_detection,
)
from repro.sessions.workload import MergedStream, back_to_back_stream

__all__ = [
    "BoundaryConfig",
    "detect_session_starts",
    "evaluate_boundary_detection",
    "MergedStream",
    "back_to_back_stream",
]
