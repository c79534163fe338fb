"""RTC call model: profiles, call catalog, and the session simulator.

The sender paces media in fixed *ticks* (a couple of seconds of
encoded audio+video per wire batch — the granularity a transparent
proxy can see anyway) over a long-lived TLS connection, and adapts its
rate like Google Congestion Control in spirit: a delay-gradient
overuse detector backs the rate off multiplicatively, otherwise the
rate climbs toward (a bounded multiple of) the measured receive
throughput.  There is no playback buffer to hide behind: a batch that
arrives after its playout deadline freezes the call, and ticks the
wire falls irrecoverably behind on are dropped frames.

The session's ground truth reuses the HAS vocabulary so every
downstream consumer works unchanged: resolution rungs become
:class:`~repro.has.buffer.PlayEvent` qualities, freezes become
:class:`~repro.has.buffer.Stall` intervals, and the RTC-specific
extras (mean frame rate, freeze count, dropped frames) ride in
``SessionTrace.app_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import telemetry
from repro.has.buffer import PlayEvent, Stall
from repro.has.player import SessionShell, SessionTrace
from repro.has.services import SessionProfile
from repro.has.video import QualityLadder, QualityLevel
from repro.net.link import Link
from repro.net.tcp import TcpParams
from repro.tlsproxy.hosts import ServiceHostModel
from repro.tlsproxy.records import ResourceType

__all__ = [
    "RTC_SERVICES",
    "RtcCallCatalog",
    "RtcCallSpec",
    "RtcProfile",
    "RtcSession",
]

#: Multiplicative backoff applied to the measured throughput on overuse.
_BACKOFF_BETA = 0.85

#: Delay-gradient threshold (seconds per tick) that signals overuse.
_OVERUSE_GRADIENT_S = 0.05

#: Absolute queuing-delay slack beyond one tick that signals overuse.
_OVERUSE_SLACK_S = 0.20

#: Rate never climbs past this multiple of the measured throughput
#: (GCC's 1.5x receiver-estimate cap).
_RATE_CAP_FACTOR = 1.5

#: Freezes shorter than this are absorbed by the dejitter buffer.
_FREEZE_MIN_S = 0.05


@dataclass(frozen=True)
class RtcCallSpec:
    """One call 'title': duration, scene motion, nominal frame rate."""

    call_id: str
    duration_s: float
    motion: float
    frame_rate: float = 30.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("call duration must be positive")
        if self.motion <= 0:
            raise ValueError("motion multiplier must be positive")
        if self.frame_rate <= 0:
            raise ValueError("frame rate must be positive")


class RtcCallCatalog:
    """A deterministic library of call shapes (the RTC 'catalog').

    Mirrors :class:`~repro.has.video.VideoCatalog`'s contract: built
    once per collection chunk from the catalog seed, sampled once per
    session, so corpora stay bit-identical for any worker count.
    """

    def __init__(
        self,
        n_calls: int = 50,
        seed: int = 0,
        min_duration_s: float = 45.0,
        max_duration_s: float = 900.0,
        motion_sigma: float = 0.35,
    ):
        if n_calls < 1:
            raise ValueError("catalog needs at least one call")
        if min_duration_s <= 0 or max_duration_s < min_duration_s:
            raise ValueError("invalid duration range")
        rng = np.random.default_rng(seed)
        self._calls: list[RtcCallSpec] = []
        for i in range(n_calls):
            duration = float(
                np.exp(rng.uniform(np.log(min_duration_s), np.log(max_duration_s)))
            )
            # Motion plays the role HAS scene complexity plays: a
            # screen-share and a handheld camera differ several-fold in
            # bytes at the same resolution rung.
            motion = float(
                np.clip(np.exp(rng.normal(0.0, motion_sigma)), 0.4, 2.2)
            )
            self._calls.append(
                RtcCallSpec(call_id=f"call-{i:03d}", duration_s=duration, motion=motion)
            )

    def __len__(self) -> int:
        return len(self._calls)

    def __getitem__(self, index: int) -> RtcCallSpec:
        return self._calls[index]

    def sample(self, rng: np.random.Generator) -> RtcCallSpec:
        """Draw one call shape uniformly at random."""
        return self._calls[int(rng.integers(len(self._calls)))]


class RtcSession(SessionShell):
    """Simulates one bidirectional call of ``call`` on ``profile``.

    The loop per tick: pick the highest ladder rung the current rate
    estimate sustains, put one tick of *our* video on the uplink and
    one tick of the remote's video on the downlink of the same fetch
    (bidirectional media through one TLS connection), observe the
    batch's wire delay, and update the rate GCC-style.  Batches that
    miss their playout deadline open freezes; ticks the wire falls a
    whole tick behind on are skipped (dropped frames), which is what
    drags the mean frame rate down under congestion.

    The user hangs up at ``min(call.duration_s, watch_duration_s)``:
    calls end for the same impatience reasons HAS sessions do, and the
    trace reports that length as its watch duration.  A call has no
    warm start (no cached player page), so ``warm_start=True`` raises.
    """

    def __init__(
        self,
        profile: RtcProfile,
        call: RtcCallSpec,
        link: Link,
        rng: np.random.Generator,
        watch_duration_s: float,
        tcp_params_factory: Callable[[np.random.Generator], TcpParams],
        warm_start: bool = False,
    ):
        if warm_start:
            raise ValueError(
                f"profile {profile.name!r} simulates RTC calls, which have "
                f"no warm start"
            )
        super().__init__(
            profile,
            link,
            rng,
            min(call.duration_s, watch_duration_s),
            tcp_params_factory,
        )
        self.call = call

    # ------------------------------------------------------------------
    def run(self) -> SessionTrace:
        """Execute the call and return its complete trace."""
        profile, call, rng = self.profile, self.call, self.rng
        ladder = profile.ladder
        tick = profile.tick_s

        # --- Signaling: client assets, then the join/negotiation API. --
        page = self._fetch(
            0.0, ResourceType.PLAYER_PAGE, int(rng.integers(80_000, 350_000))
        )
        join = self._fetch(
            page.end, ResourceType.MANIFEST, int(rng.integers(4_000, 18_000))
        )
        t = join.end

        # --- Media loop. -----------------------------------------------
        rate = profile.start_rate_bps
        prev_delay: float | None = None
        events: list[PlayEvent] = []
        stalls: list[Stall] = []
        playout = 0.0  # wall clock when the previous batch finishes playing
        media_end = t + self.watch_duration_s
        next_beacon = t + profile.beacon_interval_s
        startup_delay: float | None = None
        ticks_total = 0
        ticks_sent = 0
        frames_dropped = 0.0
        while t < media_end:
            if t >= next_beacon:
                beacon = self._fetch(
                    t, ResourceType.BEACON, int(rng.integers(300, 900))
                )
                next_beacon = beacon.start + profile.beacon_interval_s
            rung = ladder.highest_sustainable(rate)
            batch_bps = ladder[rung].bitrate_bps * call.motion
            media_bytes = max(1, int(batch_bps * tick / 8.0))
            # Bidirectional: our camera rides the uplink of the same
            # exchange the remote party's video arrives on.
            batch = self._fetch(
                t,
                ResourceType.VIDEO_SEGMENT,
                media_bytes,
                quality_index=rung,
                request_bytes=media_bytes,
            )
            arrival = batch.end
            delay = arrival - t
            gradient = delay - prev_delay if prev_delay is not None else 0.0
            prev_delay = delay
            throughput = media_bytes * 8.0 / max(delay, 1e-6)

            # GCC-style control: the delay gradient (or a large absolute
            # queuing delay) signals overuse -> multiplicative backoff
            # from the *measured* throughput; otherwise climb, bounded
            # by a multiple of what the receiver actually saw.
            if gradient > _OVERUSE_GRADIENT_S or delay > tick + _OVERUSE_SLACK_S:
                rate = max(profile.min_rate_bps, _BACKOFF_BETA * throughput)
            else:
                rate = min(
                    profile.max_rate_bps,
                    max(rate * 1.05, profile.min_rate_bps),
                    max(_RATE_CAP_FACTOR * throughput, profile.min_rate_bps),
                )

            # Playout: no buffer to hide behind.  A late batch freezes
            # the call from the previous batch's end until it lands.
            if startup_delay is None:
                startup_delay = arrival
                playout = arrival
            start = max(arrival, playout)
            if start - playout > _FREEZE_MIN_S:
                stalls.append(Stall(start=playout, end=start))
            events.append(PlayEvent(start=start, end=start + tick, quality=rung))
            playout = start + tick

            ticks_total += 1
            ticks_sent += 1
            # The next capture tick is real time; if the wire is a full
            # tick (or more) behind, the sender skips those frames.
            t += tick
            if arrival > t:
                skipped = int((arrival - t) // tick)
                if skipped:
                    frames_dropped += skipped * tick * call.frame_rate
                    ticks_total += skipped
                    t += skipped * tick

        # --- Wind down. ------------------------------------------------
        session_end = max(media_end, playout)

        # Clip playout past the hangup: the receiver stops rendering.
        events = [
            PlayEvent(e.start, min(e.end, session_end), e.quality)
            for e in events
            if e.start < session_end
        ]
        stalls = [
            Stall(s.start, min(s.end, session_end))
            for s in stalls
            if s.start < session_end
        ]
        mean_fps = call.frame_rate * (ticks_sent / ticks_total if ticks_total else 0.0)
        trace = self._close(
            session_end,
            video_id=call.call_id,
            play_events=events,
            stalls=stalls,
            startup_delay=startup_delay,
            app_stats={
                "mean_fps": mean_fps,
                "freeze_count": float(len(stalls)),
                "frames_dropped": frames_dropped,
                "final_rate_bps": rate,
            },
        )
        telemetry.count("rtc.ticks", ticks_sent)
        telemetry.count("rtc.freezes", len(stalls))
        telemetry.count("rtc.frames_dropped", frames_dropped)
        return trace


@dataclass(frozen=True)
class RtcProfile(SessionProfile):
    """Everything service-specific the RTC simulator needs.

    Offers the slice of :class:`~repro.has.services.ServiceProfile` the
    downstream pipeline consumes (``name``, ``ladder``, ``make_catalog``,
    ``host_model``, and ``quality_category`` from their shared
    :class:`~repro.has.services.SessionProfile`), so session records,
    labels, shards, and features need no RTC-specific code.
    """

    #: RTC sessions run the call simulator.
    simulator = RtcSession

    name: str
    ladder: QualityLadder
    host_model: ServiceHostModel
    #: Resolution thresholds mapping rungs to low/medium/high, like HAS.
    quality_low_max_resolution: int
    quality_medium_max_resolution: int
    #: Seconds of media per wire batch (the adaptation interval).
    tick_s: float = 2.0
    start_rate_bps: float = 600_000.0
    min_rate_bps: float = 120_000.0
    max_rate_bps: float = 4_000_000.0
    #: RTCP-style stats beacons (separate telemetry connection).
    beacon_interval_s: float = 25.0
    idle_timeout_s: float = 30.0
    max_requests_per_connection: int = 64
    request_header_bytes: tuple[int, int] = (300, 700)
    n_catalog_calls: int = 50
    #: Workload this profile belongs to (`repro.workloads` registry).
    workload: str = "rtc"

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ValueError("tick duration must be positive")
        if not 0 < self.min_rate_bps <= self.start_rate_bps <= self.max_rate_bps:
            raise ValueError("rates must satisfy min <= start <= max")
        if self.quality_low_max_resolution >= self.quality_medium_max_resolution:
            raise ValueError("quality thresholds must ascend")

    def make_catalog(self, seed: int = 0) -> RtcCallCatalog:
        """Build the call-shape library (catalog contract)."""
        return RtcCallCatalog(n_calls=self.n_catalog_calls, seed=seed)


def _rtc_ladder(*levels: tuple[str, int, float]) -> QualityLadder:
    return QualityLadder(
        levels=tuple(
            QualityLevel(name=n, resolution=r, bitrate_bps=b * 1e6)
            for n, r, b in levels
        )
    )


#: Conferencing simulcast rungs: far lower bitrates than HAS ladders —
#: real-time encoders trade quality for latency.
_RTC1_LADDER = _rtc_ladder(
    ("180p", 180, 0.20),
    ("270p", 270, 0.40),
    ("360p", 360, 0.70),
    ("540p", 540, 1.20),
    ("720p", 720, 1.80),
)


RTC1 = RtcProfile(
    name="rtc1",
    ladder=_RTC1_LADDER,
    host_model=ServiceHostModel(
        service="rtc1", n_edge_nodes=120, edges_per_session=2, separate_audio_host=False
    ),
    quality_low_max_resolution=270,
    quality_medium_max_resolution=540,
)

#: Registered RTC services, by name.
RTC_SERVICES: dict[str, RtcProfile] = {RTC1.name: RTC1}
