"""Service profiles: Svc1, Svc2, Svc3.

The paper anonymizes three popular streaming services but describes
their designs precisely enough to model:

* **Svc1** — large (240 s) playback buffer; "attempts to avoid
  re-buffering by quickly filling the buffer at the expense of
  streaming at low video quality".  Modelled with a buffer-based ABR
  and a deep cushion: poor networks yield *low quality*, rarely stalls.
  Quality thresholds: ≤288p low, ≤480p medium, higher high.
* **Svc2** — small buffer, "switches video quality only when the video
  buffer runs low".  Modelled with a sticky hybrid ABR: poor networks
  yield *re-buffering*.  Thresholds: ≤360p low, 480p medium, ≥720p
  high.
* **Svc3** — between the two; only three quality levels observed in the
  paper's dataset, mapped one-to-one onto low/medium/high.

Each profile also fixes the service's wire personality: CDN hostname
structure, TLS connection reuse behaviour (idle timeout, keep-alive
request budget), telemetry cadence, and whether audio is fetched on a
separate connection — the knobs that shape how HTTP transactions
coalesce into TLS transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.has.abr import AbrAlgorithm, BufferBasedAbr, HybridAbr, ThroughputAbr
from repro.has.player import PlayerSession, SessionShell
from repro.has.video import QualityLadder, QualityLevel, VideoCatalog
from repro.tlsproxy.hosts import ServiceHostModel

__all__ = ["SessionProfile", "ServiceProfile", "SERVICES"]


class SessionProfile:
    """What every session profile shares, HAS, live and RTC alike.

    A profile class names the simulator its sessions run
    (``simulator``: a :class:`~repro.has.player.SessionShell` subclass,
    built by :func:`~repro.collection.harness.collect_session`) and maps
    ladder rungs to the paper's quality categories.  Subclasses are
    frozen dataclasses with ``name``, ``workload`` (the
    :mod:`repro.workloads` entry the profile belongs to), ``ladder``,
    ``quality_low_max_resolution`` and ``quality_medium_max_resolution``
    fields; :func:`repro.workloads.get_profile` looks one up by name.
    """

    simulator: ClassVar[type[SessionShell]]

    def quality_category(self, quality_index: int) -> int:
        """Map a ladder index to 0 (low), 1 (medium), 2 (high)."""
        resolution = self.ladder[quality_index].resolution
        if resolution <= self.quality_low_max_resolution:
            return 0
        if resolution <= self.quality_medium_max_resolution:
            return 1
        return 2


@dataclass(frozen=True)
class ServiceProfile(SessionProfile):
    """Everything service-specific the simulator needs.

    See the module docstring for how the three instances map onto the
    paper's descriptions.
    """

    #: HAS and live-HAS sessions run the buffered player.
    simulator = PlayerSession

    name: str
    ladder: QualityLadder
    segment_duration_s: float
    buffer_capacity_s: float
    startup_buffer_s: float
    abr_factory: Callable[[QualityLadder], AbrAlgorithm]
    host_model: ServiceHostModel
    #: Resolution thresholds: ``resolution <= low_max`` → low,
    #: ``<= medium_max`` → medium, else high (paper §4.1).
    quality_low_max_resolution: int
    quality_medium_max_resolution: int
    separate_audio: bool = True
    audio_bitrate_bps: float = 128_000.0
    #: Fetch one audio transaction per this many video segments.
    audio_group: int = 2
    beacon_interval_s: float = 30.0
    idle_timeout_s: float = 15.0
    max_requests_per_connection: int = 16
    page_bytes: tuple[int, int] = (600_000, 1_800_000)
    manifest_bytes: tuple[int, int] = (20_000, 90_000)
    request_header_bytes: tuple[int, int] = (450, 900)
    uses_drm_license: bool = False
    n_catalog_videos: int = 60
    #: Segments are fetched as this many HTTP range requests (min, max);
    #: some services (Svc1) chunk every segment into several ranges.
    range_requests_per_segment: tuple[int, int] = (1, 1)
    #: Probability a segment's quality deviates ±1 rung from the ABR
    #: decision — real players oscillate for reasons invisible on the
    #: wire (renderer hints, A/B-tested heuristics, device limits).
    abr_jitter: float = 0.1
    #: Which workload registry entry this profile belongs to
    #: (:mod:`repro.workloads`): ``"has"`` for the on-demand services
    #: here, ``"live"`` for the low-buffer variants in
    #: :mod:`repro.has.live`.
    workload: str = "has"

    def __post_init__(self) -> None:
        if self.segment_duration_s <= 0:
            raise ValueError("segment duration must be positive")
        if self.startup_buffer_s > self.buffer_capacity_s:
            raise ValueError("startup buffer cannot exceed capacity")
        if self.audio_group < 1:
            raise ValueError("audio_group must be >= 1")
        if self.quality_low_max_resolution >= self.quality_medium_max_resolution:
            raise ValueError("quality thresholds must ascend")

    def make_abr(self) -> AbrAlgorithm:
        """Instantiate this service's adaptation algorithm."""
        return self.abr_factory(self.ladder)

    def make_catalog(self, seed: int = 0) -> VideoCatalog:
        """Build the service's content library (50-75 titles)."""
        return VideoCatalog(
            ladder=self.ladder,
            segment_duration_s=self.segment_duration_s,
            n_videos=self.n_catalog_videos,
            seed=seed,
            audio_bitrate_bps=self.audio_bitrate_bps,
        )


# ABR factories are module-level named functions (not lambdas) so that
# profiles — and variants built from them with ``dataclasses.replace``
# — pickle cleanly into corpus-collection pool workers.
def _svc1_abr(ladder: QualityLadder) -> AbrAlgorithm:
    return BufferBasedAbr(
        ladder, reservoir_s=4.0, cushion_s=35.0, throughput_cap_safety=1.2
    )


def _svc2_abr(ladder: QualityLadder) -> AbrAlgorithm:
    return HybridAbr(
        ladder, low_buffer_s=4.0, high_buffer_s=15.0, start_safety=1.1,
        up_safety=0.85, start_floor=2,
    )


def _svc3_abr(ladder: QualityLadder) -> AbrAlgorithm:
    return ThroughputAbr(ladder, safety=0.75)


def _ladder(*levels: tuple[str, int, float]) -> QualityLadder:
    return QualityLadder(
        levels=tuple(
            QualityLevel(name=n, resolution=r, bitrate_bps=b * 1e6)
            for n, r, b in levels
        )
    )


_SVC1_LADDER = _ladder(
    ("144p", 144, 0.12),
    ("240p", 240, 0.25),
    ("288p", 288, 0.42),
    ("360p", 360, 0.65),
    ("480p", 480, 1.10),
    ("720p", 720, 2.40),
    ("1080p", 1080, 4.40),
)

_SVC2_LADDER = _ladder(
    ("240p", 240, 0.35),
    ("360p", 360, 0.75),
    ("480p", 480, 1.40),
    ("720p", 720, 3.00),
    ("1080p", 1080, 5.50),
)

_SVC3_LADDER = _ladder(
    ("360p", 360, 0.90),
    ("540p", 540, 1.80),
    ("720p", 720, 3.20),
)


SVC1 = ServiceProfile(
    name="svc1",
    ladder=_SVC1_LADDER,
    segment_duration_s=5.0,
    buffer_capacity_s=240.0,
    startup_buffer_s=10.0,
    abr_factory=_svc1_abr,
    host_model=ServiceHostModel(service="svc1", n_edge_nodes=500, edges_per_session=2),
    quality_low_max_resolution=288,
    quality_medium_max_resolution=480,
    separate_audio=True,
    audio_bitrate_bps=128_000.0,
    audio_group=2,
    beacon_interval_s=20.0,
    idle_timeout_s=10.0,
    max_requests_per_connection=12,
    n_catalog_videos=75,
    range_requests_per_segment=(2, 4),
    abr_jitter=0.15,
)

SVC2 = ServiceProfile(
    name="svc2",
    ladder=_SVC2_LADDER,
    segment_duration_s=4.0,
    buffer_capacity_s=60.0,
    startup_buffer_s=8.0,
    abr_factory=_svc2_abr,
    host_model=ServiceHostModel(service="svc2", n_edge_nodes=300, edges_per_session=2),
    quality_low_max_resolution=360,
    quality_medium_max_resolution=480,
    separate_audio=True,
    audio_bitrate_bps=96_000.0,
    audio_group=3,
    beacon_interval_s=45.0,
    idle_timeout_s=25.0,
    max_requests_per_connection=24,
    uses_drm_license=True,
    n_catalog_videos=60,
    abr_jitter=0.08,
)

SVC3 = ServiceProfile(
    name="svc3",
    ladder=_SVC3_LADDER,
    segment_duration_s=6.0,
    buffer_capacity_s=90.0,
    startup_buffer_s=12.0,
    abr_factory=_svc3_abr,
    host_model=ServiceHostModel(
        service="svc3", n_edge_nodes=200, edges_per_session=2, separate_audio_host=False
    ),
    quality_low_max_resolution=360,
    quality_medium_max_resolution=540,
    separate_audio=False,
    beacon_interval_s=30.0,
    idle_timeout_s=15.0,
    max_requests_per_connection=16,
    uses_drm_license=True,
    n_catalog_videos=50,
    abr_jitter=0.12,
)

#: The three services of the paper's evaluation, by name.
SERVICES: dict[str, ServiceProfile] = {p.name: p for p in (SVC1, SVC2, SVC3)}
