"""Feature extraction.

Two parallel pipelines mirror the paper's comparison:

* :mod:`repro.features.tls_features` — the 38 features of Table 1,
  computed from a session's TLS transactions alone (4 session-level +
  18 transaction statistics + 16 temporal cumulative-byte features).
* :mod:`repro.features.packet_features` — the ML16 baseline features
  (Dimopoulos et al., IMC 2016) computed from packet traces: video
  segment statistics recovered from uplink requests, plus network
  metrics (retransmissions, loss, RTT, throughput).
"""

from repro.features.packet_features import (
    ML16_FEATURE_NAMES,
    extract_ml16_features,
)
from repro.features.segments import reconstruct_segments
from repro.features.tls_features import (
    TEMPORAL_INTERVALS,
    TLS_FEATURE_NAMES,
    extract_tls_features,
    extract_tls_table,
    feature_groups,
    feature_names,
    temporal_feature_names,
)

__all__ = [
    "TLS_FEATURE_NAMES",
    "TEMPORAL_INTERVALS",
    "extract_tls_features",
    "extract_tls_table",
    "feature_groups",
    "feature_names",
    "temporal_feature_names",
    "ML16_FEATURE_NAMES",
    "extract_ml16_features",
    "reconstruct_segments",
]
