"""Feature extraction from flow records.

Flow records carry the same information shape as TLS transactions —
(start, end, uplink bytes, downlink bytes) — so the paper's 38-feature
schema applies directly, computed over flow *slices* instead of TLS
connections.  Because the active timeout splits long flows, the
temporal features gain resolution the TLS view lacks; packet counters
additionally enable a mean-packet-size feature family.

Extraction is columnar end to end.  A corpus hands over its transfers
through its block readers — an in-memory corpus is one block, a sharded
one has a :class:`~repro.collection.shards.ShardReader` per shard —
and each block is one pool task (:func:`repro.parallel.parallel_map`):
the worker reads the block's transfer members, and
:func:`~repro.netflow.exporter.export_flow_table` exports them in one
array pass into a :class:`~repro.tlsproxy.table.TransactionTable` plus
packet columns.  The vectorized TLS kernel and segment reductions for
the packet statistics then featurize it.  The per-session reference
(the per-connection exporter and per-session features) lives in
``tests/flow_oracle.py``; the two are bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.collection.dataset import Dataset
from repro.features.tls_features import TLS_FEATURE_NAMES, extract_tls_table
from repro.netflow.exporter import ExporterConfig, FlowTable, export_flow_table
from repro.parallel import parallel_map
from repro.tlsproxy.table import segment_min_med_max, segment_sum

__all__ = ["FLOW_FEATURE_NAMES", "extract_flow_matrix", "export_flow_features"]

#: Flow features: the TLS schema over slices + packet-size statistics.
FLOW_FEATURE_NAMES: tuple[str, ...] = TLS_FEATURE_NAMES + (
    "PKT_SIZE_DOWN_MED",
    "PKT_SIZE_UP_MED",
    "PKTS_PER_SEC",
)


def _flow_features(flows: FlowTable) -> np.ndarray:
    """One feature row per session of an exported block."""
    table = flows.records
    pkts_up, pkts_down = flows.packets_up, flows.packets_down
    base = extract_tls_table(table)
    with np.errstate(divide="ignore", invalid="ignore"):
        size_down = np.where(
            pkts_down > 0, table.downlink / np.maximum(pkts_down, 1), 0.0
        )
        size_up = np.where(pkts_up > 0, table.uplink / np.maximum(pkts_up, 1), 0.0)
    offsets = table.offsets
    segment_ids = table.session_ids
    _, med_down, _ = segment_min_med_max(size_down, offsets, segment_ids)
    _, med_up, _ = segment_min_med_max(size_up, offsets, segment_ids)
    lo = offsets[:-1]
    session_span = np.maximum.reduceat(table.end, lo) - np.minimum.reduceat(
        table.start, lo
    )
    pkts_per_sec = (
        segment_sum(pkts_down, offsets) + segment_sum(pkts_up, offsets)
    ) / np.maximum(session_span, 1e-9)
    return np.column_stack([base, med_down, med_up, pkts_per_sec])


def _block_flows(task) -> tuple[np.ndarray, np.ndarray | None]:
    """Worker: one block's flow counts per session and its feature rows
    (``None`` when a session exports no flow record)."""
    reader, config = task
    flows = export_flow_table(*reader.transfer_block(), config)
    counts = flows.counts
    if not counts.size or (counts == 0).any():
        return counts, None
    return counts, _flow_features(flows)


def extract_flow_matrix(
    dataset: Dataset, config: ExporterConfig | None = None
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Flow-feature matrix for a whole corpus (exporting on the fly).

    Each of the corpus's block readers (one per shard of a stored
    corpus, or the one block a corpus in memory holds) is one pool
    task over ``REPRO_JOBS`` workers: its block is exported
    in one array pass and featurized columnar, and rows stack in
    session order.  Every feature is a within-session reduction, so the
    block size and worker count cannot change any value, and the output
    is bit-identical to stacking the per-session reference.  A session
    that exports no flow record raises ``ValueError`` naming it.
    """
    return export_flow_features(dataset, config)[0], FLOW_FEATURE_NAMES


def export_flow_features(
    dataset: Dataset, config: ExporterConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`extract_flow_matrix`'s matrix and, from the same export,
    the number of flow records each session exported."""
    blocks, block_counts = [], []
    first = 0
    n_flows = 0
    with telemetry.span("features.flow", sessions=len(dataset)) as sp:
        tasks = [(reader, config) for reader in dataset.block_readers()]
        for counts, X in parallel_map(_block_flows, tasks):
            if (counts == 0).any():
                empty = first + int(np.flatnonzero(counts == 0)[0])
                raise ValueError(
                    f"session {empty} exports no flow record "
                    "(a session needs at least one flow record)"
                )
            if X is not None:
                blocks.append(X)
            block_counts.append(counts)
            first += counts.size
            n_flows += int(counts.sum())
        sp.set(flows=n_flows)
    counts = np.concatenate(block_counts) if block_counts else np.zeros(0, np.int64)
    if not blocks:
        return np.empty((0, len(FLOW_FEATURE_NAMES))), counts
    return np.vstack(blocks), counts
