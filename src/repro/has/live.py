"""Live-HAS service profiles: low-latency variants of the VoD services.

Live players chase the broadcast edge, so they cannot build the deep
buffers that make on-demand HAS resilient: segments are short (2s),
the buffer caps at a latency target of 2-6 seconds, and playback
starts after roughly one segment.  Any bandwidth dip longer than the
buffer rebuffers — these profiles are *rebuffer-prone by design*,
which is exactly the regime where the paper's coarse-grained detector
has to earn its keep.

Built with :func:`dataclasses.replace` from the VoD profiles in
:mod:`repro.has.services` so everything not latency-related (ladders,
DRM, beacons, catalog sizes) carries over; they register under the
``live`` workload in :mod:`repro.workloads`.
"""

from __future__ import annotations

import dataclasses

from repro.has.abr import AbrAlgorithm, HybridAbr, ThroughputAbr
from repro.has.services import SVC1, SVC2, SVC3, ServiceProfile
from repro.has.video import QualityLadder
from repro.tlsproxy.hosts import ServiceHostModel

__all__ = ["LIVE_SERVICES"]


# Module-level named factories (not lambdas) so live profiles pickle
# into corpus-collection pool workers, same as the VoD factories.
def _live1_abr(ladder: QualityLadder) -> AbrAlgorithm:
    # Aggressive: chases throughput with little headroom, the way
    # latency-first players do.  Pays for it in rebuffers.
    return ThroughputAbr(ladder, safety=0.9)


def _live2_abr(ladder: QualityLadder) -> AbrAlgorithm:
    return HybridAbr(
        ladder, low_buffer_s=2.0, high_buffer_s=4.0, start_safety=1.0,
        up_safety=0.8, start_floor=1,
    )


def _live3_abr(ladder: QualityLadder) -> AbrAlgorithm:
    return ThroughputAbr(ladder, safety=0.8)


LIVE1 = dataclasses.replace(
    SVC1,
    name="live1",
    workload="live",
    segment_duration_s=2.0,
    buffer_capacity_s=6.0,
    startup_buffer_s=2.0,
    abr_factory=_live1_abr,
    host_model=ServiceHostModel(service="live1", n_edge_nodes=150, edges_per_session=2),
    # Live manifests refresh constantly; beacons report join latency.
    beacon_interval_s=15.0,
    # Short segments arrive relentlessly: connections never idle long
    # and carry far more requests before rotation.
    idle_timeout_s=8.0,
    max_requests_per_connection=48,
    range_requests_per_segment=(1, 1),
    abr_jitter=0.10,
)

LIVE2 = dataclasses.replace(
    SVC2,
    name="live2",
    workload="live",
    segment_duration_s=2.0,
    buffer_capacity_s=4.0,
    startup_buffer_s=2.0,
    abr_factory=_live2_abr,
    host_model=ServiceHostModel(service="live2", n_edge_nodes=100, edges_per_session=2),
    beacon_interval_s=20.0,
    idle_timeout_s=8.0,
    max_requests_per_connection=48,
    abr_jitter=0.08,
)

LIVE3 = dataclasses.replace(
    SVC3,
    name="live3",
    workload="live",
    segment_duration_s=2.0,
    buffer_capacity_s=3.0,
    startup_buffer_s=2.0,
    abr_factory=_live3_abr,
    host_model=ServiceHostModel(
        service="live3", n_edge_nodes=80, edges_per_session=2,
        separate_audio_host=False,
    ),
    beacon_interval_s=15.0,
    idle_timeout_s=6.0,
    max_requests_per_connection=64,
    abr_jitter=0.10,
)

#: Live-HAS profiles, by name.
LIVE_SERVICES: dict[str, ServiceProfile] = {
    p.name: p for p in (LIVE1, LIVE2, LIVE3)
}

