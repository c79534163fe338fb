"""ML16 packet-trace features (Dimopoulos et al., IMC 2016).

The paper's packet-level baseline estimates QoE from features of the
video segments recovered from the traffic plus network-health metrics.
Everything here is computed from the synthesized packet trace alone —
no ground truth leaks in:

* segment statistics — count, size and duration stats, per-segment
  throughput stats, inter-arrival stats (segments via
  :func:`repro.features.segments.segments_by_connection`);
* network metrics — retransmission count and rate, RTT estimated from
  handshakes, packet counts/sizes, downlink/uplink volume and rates.

This is the feature set ML16 uses for video quality, which the paper
notes is a superset of its re-buffering features, so one extractor
serves the combined-QoE comparison (Table 4).

Featurization is columnar: one stable sort groups a trace's packets by
connection (:class:`~repro.features.segments.ConnectionPackets`), and
segments and handshake RTTs are whole-trace reductions over it.  A
corpus fans out over the process pool in contiguous session ranges
that never cross a block; each task reads its block's transfer and
connection rows, synthesizes session ``i``'s trace with seed
``seed + i``, featurizes it and drops it, so no record is built and
memory holds one trace per worker.  The per-session reference (the
per-transfer synthesizer and per-connection featurizer) lives in
``tests/packet_oracle.py``; the two are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from repro import telemetry
from repro.collection.dataset import Dataset
from repro.features.segments import ConnectionPackets, segments_by_connection
from repro.net.packets import DOWNLINK, UPLINK, PacketTrace, synthesize_from_rows
from repro.parallel import parallel_map, resolve_jobs

__all__ = ["ML16_FEATURE_NAMES", "extract_ml16_features", "extract_ml16_matrix"]

#: Session ranges per pool worker in :func:`extract_ml16_matrix`.  On a
#: 2-vCPU host with 2 workers, one range each lost to load imbalance on
#: a 256-session stored corpus (1.92 s against 1.81 s at two), and four
#: lost to per-task cost on a 16-session corpus in memory (0.086 s
#: against 0.080 s).
_RANGES_PER_WORKER = 2

ML16_FEATURE_NAMES: tuple[str, ...] = (
    # Segment features.
    "SEG_COUNT",
    "SEG_SIZE_MEAN",
    "SEG_SIZE_MED",
    "SEG_SIZE_STD",
    "SEG_SIZE_MIN",
    "SEG_SIZE_MAX",
    "SEG_DUR_MEAN",
    "SEG_DUR_MAX",
    "SEG_TPUT_MEAN",
    "SEG_TPUT_MED",
    "SEG_TPUT_MIN",
    "SEG_IAT_MED",
    "SEG_IAT_MAX",
    # Network metrics.
    "RETX_COUNT",
    "RETX_RATE",
    "RTT_MED",
    "RTT_MAX",
    "PKT_COUNT",
    "PKT_SIZE_MEAN",
    "BYTES_DOWN",
    "BYTES_UP",
    "SESSION_DUR",
    "TPUT_DOWN",
    "TPUT_UP",
)


def _stats_or_zero(values: np.ndarray, funcs) -> list[float]:
    if values.size == 0:
        return [0.0] * len(funcs)
    return [float(f(values)) for f in funcs]


def _handshake_rtts(packets: ConnectionPackets) -> np.ndarray:
    """Per-connection RTT from the SYN → SYN-ACK gap: twice the time
    from a connection's first uplink to its first downlink packet, for
    each connection, ascending, whose gap is positive."""
    gaps = packets.first_times(DOWNLINK) - packets.first_times(UPLINK)
    return 2.0 * gaps[gaps > 0]


def extract_ml16_features(trace: PacketTrace) -> np.ndarray:
    """The ML16 feature vector of one session's packet trace."""
    if trace.n_packets == 0:
        raise ValueError("cannot extract features from an empty packet trace")
    packets = ConnectionPackets.of(trace)
    segments = segments_by_connection(packets)
    rtts = _handshake_rtts(packets)
    del packets  # the sorted copies go before the trace-wide masks below
    sizes = segments.sizes_bytes
    tputs = segments.throughputs()
    iats = segments.inter_arrivals()

    duration = max(trace.duration, 1e-9)
    bytes_down = float(trace.bytes_down())
    bytes_up = float(trace.bytes_up())
    retx = float(np.count_nonzero(trace.is_retransmit))

    features = [
        float(segments.n_segments),
        *_stats_or_zero(sizes, (np.mean, np.median, np.std, np.min, np.max)),
        *_stats_or_zero(segments.durations, (np.mean, np.max)),
        *_stats_or_zero(tputs, (np.mean, np.median, np.min)),
        *_stats_or_zero(iats, (np.median, np.max)),
        retx,
        float(trace.retransmission_rate()),
        *_stats_or_zero(rtts, (np.median, np.max)),
        float(trace.n_packets),
        float(trace.sizes.mean()),
        bytes_down,
        bytes_up,
        duration,
        bytes_down / duration,
        bytes_up / duration,
    ]
    vector = np.asarray(features, dtype=np.float64)
    if vector.shape[0] != len(ML16_FEATURE_NAMES):
        raise AssertionError("feature vector length drifted from the schema")
    return vector


def _range_features(task) -> tuple[np.ndarray, int]:
    """Worker: ML16 rows of sessions ``lo:hi`` of one block, and the
    packets synthesized for them."""
    reader, lo, hi, seed = task
    arrays = reader.read("transfers", "connections")
    transfers, t_off = arrays["transfers"], arrays["transfer_offsets"]
    connections, c_off = arrays["connections"], arrays["connection_offsets"]
    X = np.empty((hi - lo, len(ML16_FEATURE_NAMES)))
    n_packets = 0
    for i in range(lo, hi):
        trace = synthesize_from_rows(
            transfers[t_off[i]:t_off[i + 1]],
            connections[c_off[i]:c_off[i + 1]],
            np.random.default_rng(seed + i),
        )
        n_packets += trace.n_packets
        X[i - lo] = extract_ml16_features(trace)
    return X, n_packets


def extract_ml16_matrix(
    dataset: Dataset, seed: int = 0
) -> tuple[np.ndarray, tuple[str, ...]]:
    """ML16 features for a whole corpus.

    Packet traces are synthesized per session, featurized, and dropped
    — mirroring a streaming extractor — so memory stays flat no matter
    the corpus size.  Session ``i`` draws its trace from seed
    ``seed + i``.  The sessions fan out over ``REPRO_JOBS`` workers in
    contiguous ranges of ``ceil(n / (2 * jobs))``, cut at block
    boundaries, and rows stack in session order, so the matrix is
    bit-identical for any worker count and block size.
    """
    if len(dataset) == 0:
        return np.empty((0, len(ML16_FEATURE_NAMES))), ML16_FEATURE_NAMES
    with telemetry.span("features.ml16", sessions=len(dataset)) as sp:
        size = math.ceil(len(dataset) / (_RANGES_PER_WORKER * resolve_jobs()))
        tasks = []
        first = 0
        for reader in dataset.block_readers():
            n = reader.entry.n_sessions
            tasks.extend(
                (reader, lo, min(lo + size, n), seed + first)
                for lo in range(0, n, size)
            )
            first += n
        parts = parallel_map(_range_features, tasks)
        X = np.concatenate([part for part, _ in parts])
        n_packets = sum(count for _, count in parts)
        sp.set(rows=int(X.shape[0]), cols=int(X.shape[1]), packets=n_packets)
        telemetry.count("ml16.packets_synthesized", n_packets)
    return X, ML16_FEATURE_NAMES
