"""NetFlow-style flow-level monitoring (the paper's future work).

The paper's conclusion proposes exploring "more granular flow-level
data collected using NetFlow" as a middle ground between TLS
transactions and packet traces: flow records resemble TLS transactions
(per-connection byte/packet counters) but an exporter's *active
timeout* slices long flows into periodic summaries, giving finer
temporal resolution at slightly higher record volume.

This package implements that data source: a NetFlow v9-style exporter
that turns simulated connections into flow records (active/idle
timeout semantics), one array pass per block of sessions, plus feature
extraction that reuses the TLS feature schema over flow slices.  The
video-identification problem the paper notes for flow data (no SNI) is
assumed solved via DNS augmentation, as in Bermudez et al. — see
DESIGN.md.
"""

from repro.netflow.exporter import ExporterConfig, FlowTable, export_flow_table
from repro.netflow.features import FLOW_FEATURE_NAMES, extract_flow_matrix

__all__ = [
    "ExporterConfig",
    "FLOW_FEATURE_NAMES",
    "FlowTable",
    "export_flow_table",
    "extract_flow_matrix",
]
