"""The session shell and the HAS player session simulator.

:class:`SessionShell` is the part of a simulated session every
application shares: the session's TLS connection pool and hostnames,
one HTTP fetch through them, and the wind-down — closing beacon, pool
shutdown, the network path's counters, the transparent proxy's export
— that packs everything into a :class:`SessionTrace`.  Each
application subclasses it with its own loop only: :class:`PlayerSession`
here (HAS and live-HAS) and :class:`~repro.rtc.model.RtcSession` (RTC
calls).  A profile class names the simulator its sessions run
(``simulator``), and :func:`~repro.collection.harness.collect_session`
builds it.

:class:`PlayerSession` drives one playback session end to end,
standing in for the paper's browser-automation framework: it fetches
the player page, manifest and (optionally) a DRM license, then runs the
segment download loop — ABR decision, video segment fetch, grouped
audio fetches, telemetry beacons — against the TLS connection pool,
pacing downloads against the playback buffer.  The trace holds
everything every downstream consumer needs: the proxy's TLS
transactions, the HTTP transactions (Figure 2), the raw transfers and
connections (packet-trace synthesis for ML16), and the playback
schedule (ground-truth QoE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import telemetry
from repro.has.buffer import PlaybackSchedule, PlayEvent, Stall
from repro.has.abr import AbrState
from repro.has.video import Video
from repro.net.link import Link
from repro.net.tcp import TcpParams, Transfer
from repro.record import record
from repro.tlsproxy.connection import TlsConnectionPool
from repro.tlsproxy.hosts import SessionHosts
from repro.tlsproxy.proxy import TransparentProxy
from repro.tlsproxy.records import HttpTransaction, ResourceType, TlsTransaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.has.services import ServiceProfile, SessionProfile

__all__ = [
    "SessionTrace",
    "SessionShell",
    "PlayerSession",
    "ConnectionMeta",
    "UserBehavior",
]

#: EWMA weight of the newest throughput sample.
_THROUGHPUT_EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class UserBehavior:
    """User-interaction model (the paper's limitation #2 / future work).

    Interactions are drawn per downloaded segment with probabilities
    derived from the configured per-minute rates.

    Parameters
    ----------
    pauses_per_minute:
        Expected pause events per minute of wall-clock session time.
    pause_duration_s:
        (min, max) uniform pause length in seconds.
    seeks_per_minute:
        Expected forward seeks per minute.
    seek_segments:
        (min, max) segments jumped over per seek.
    """

    pauses_per_minute: float = 0.0
    pause_duration_s: tuple[float, float] = (5.0, 45.0)
    seeks_per_minute: float = 0.0
    seek_segments: tuple[int, int] = (2, 20)

    def __post_init__(self) -> None:
        if self.pauses_per_minute < 0 or self.seeks_per_minute < 0:
            raise ValueError("rates must be non-negative")
        if self.pause_duration_s[0] < 0 or self.pause_duration_s[1] < self.pause_duration_s[0]:
            raise ValueError("invalid pause duration range")
        if self.seek_segments[0] < 1 or self.seek_segments[1] < self.seek_segments[0]:
            raise ValueError("invalid seek range")


@record
class ConnectionMeta:
    """Compact connection metadata retained for packet synthesis."""

    connection_id: int
    host: str
    opened_at: float
    rtt_s: float


@dataclass
class SessionTrace:
    """Everything one simulated session produced.

    Attributes
    ----------
    service_name, video_id:
        What was streamed.
    watch_duration_s:
        How long the viewer intended to watch (wall clock).
    session_end:
        When the player actually closed (content may end earlier).
    tls_transactions:
        The transparent proxy's export — the paper's input data.
    http_transactions:
        Application-level exchanges (Figure 2's fine-grained view).
    transfers, connections:
        Raw transport records for on-demand packet-trace synthesis.
    play_events, stalls:
        Ground-truth playback timeline.
    startup_delay:
        Seconds from session start to first rendered frame.
    hosts:
        The hostnames this session used.
    link_mean_bps:
        Mean bandwidth of the underlying trace (evaluation metadata).
    scenario:
        Name of the network scenario the session streamed over
        (``"identity"`` for the unimpaired pipeline).
    policed:
        Ground truth: did a token-bucket policer drop packets from this
        session?  Feeds the ``policed`` label.
    path_stats:
        Per-stage cumulative impairment counters (empty for identity).
    app_stats:
        Application-specific extras that have no HAS equivalent (e.g.
        RTC mean frame rate and freeze count).  Empty for HAS sessions;
        never serialized into corpora.
    """

    service_name: str
    video_id: str
    watch_duration_s: float
    session_end: float
    tls_transactions: list[TlsTransaction]
    http_transactions: list[HttpTransaction]
    transfers: list[Transfer]
    connections: list[ConnectionMeta]
    play_events: list[PlayEvent]
    stalls: list[Stall]
    startup_delay: float
    hosts: SessionHosts
    link_mean_bps: float
    n_pauses: int = 0
    n_seeks: int = 0
    scenario: str = "identity"
    policed: bool = False
    path_stats: dict = field(default_factory=dict)
    app_stats: dict = field(default_factory=dict)

    @property
    def play_time(self) -> float:
        """Total seconds of content played."""
        return float(sum(e.duration for e in self.play_events))

    @property
    def stall_time(self) -> float:
        """Total mid-session stall seconds."""
        return float(sum(s.duration for s in self.stalls))

    def per_second_quality(self) -> np.ndarray:
        """Per-second ground-truth log (quality index, -1 stall, -2 idle)."""
        schedule = PlaybackSchedule(startup_buffer_s=0.0)
        schedule.events = list(self.play_events)
        schedule.stalls = list(self.stalls)
        return schedule.per_second_quality(horizon=self.session_end)


class SessionShell:
    """The part of one simulated session every application shares.

    Sets up the session's TLS connection pool and draws its hostnames
    (in that order, after the caller's trace and watch-duration
    draws), issues HTTP fetches through them (:meth:`_fetch`), and
    winds the session down into its :class:`SessionTrace`
    (:meth:`_close`).  Subclasses add the application loop as
    :meth:`run`.

    Parameters
    ----------
    profile:
        The service being simulated (TLS behaviour, hostnames, request
        header sizes).
    link:
        The access link: a bare :class:`~repro.net.link.Link` or a
        :class:`~repro.net.path.NetPath` with impairment stages.
    rng:
        Randomness source for this session.
    watch_duration_s:
        Wall-clock budget of the session; the trace reports it.
    tcp_params_factory:
        Draws per-connection path parameters (RTT, loss).
    """

    def __init__(
        self,
        profile: SessionProfile,
        link: Link,
        rng: np.random.Generator,
        watch_duration_s: float,
        tcp_params_factory: Callable[[np.random.Generator], TcpParams],
    ):
        if watch_duration_s <= 0:
            raise ValueError("watch duration must be positive")
        self.profile = profile
        self.link = link
        self.rng = rng
        self.watch_duration_s = watch_duration_s
        self._pool = TlsConnectionPool(
            link,
            rng,
            tcp_params_factory,
            idle_timeout=profile.idle_timeout_s,
            max_requests_per_connection=profile.max_requests_per_connection,
        )
        self._hosts = profile.host_model.sample_session_hosts(rng)
        self._http: list[HttpTransaction] = []
        self._transfers: list[Transfer] = []

    def run(self) -> SessionTrace:
        """Execute the session and return its complete trace."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _request_bytes(self) -> int:
        lo, hi = self.profile.request_header_bytes
        return int(self.rng.integers(lo, hi + 1))

    def _fetch(
        self,
        at: float,
        resource: ResourceType,
        response_bytes: int,
        quality_index: int = -1,
        request_bytes: int | None = None,
    ) -> HttpTransaction:
        host = self._hosts.host_for(resource, self.rng)
        req = request_bytes if request_bytes is not None else self._request_bytes()
        result = self._pool.fetch(
            at, host, req, response_bytes, resource, quality_index=quality_index
        )
        self._http.append(result.http)
        self._transfers.append(result.transfer)
        return result.http

    def _close(
        self,
        session_end: float,
        video_id: str,
        play_events: list[PlayEvent],
        stalls: list[Stall],
        startup_delay: float | None,
        **extra,
    ) -> SessionTrace:
        """Wind the session down at ``session_end`` and return its trace.

        Sends the closing beacon as the client shuts down, closes the
        pool, publishes the path's ``path.*`` counters and exports the
        proxy's TLS transactions.  ``extra`` holds the application's
        own trace fields (``n_pauses``/``n_seeks``, ``app_stats``).
        """
        self._fetch(session_end, ResourceType.BEACON, int(self.rng.integers(200, 800)))
        self._pool.shutdown(session_end)

        # The link may be a NetPath; a bare Link reports identity with
        # no stats, so this block is free on the unimpaired path.
        scenario = getattr(self.link, "scenario", "identity")
        stats_fn = getattr(self.link, "stats", None)
        path_stats: dict[str, dict[str, float]] = stats_fn() if stats_fn else {}
        for stage, counters in path_stats.items():
            for key, value in counters.items():
                telemetry.count(f"path.{stage}.{key}", value)
        policed = bool(path_stats.get("policer", {}).get("dropped_packets", 0))

        proxy = TransparentProxy()
        proxy.observe_all(self._pool.all_connections)
        connections = [
            ConnectionMeta(
                connection_id=conn.connection_id,
                host=host,
                opened_at=conn.opened_at,
                rtt_s=conn.params.rtt_s,
            )
            for host, conn in self._pool.all_connections
        ]
        return SessionTrace(
            service_name=self.profile.name,
            video_id=video_id,
            watch_duration_s=self.watch_duration_s,
            session_end=session_end,
            tls_transactions=proxy.export(),
            http_transactions=list(self._http),
            transfers=list(self._transfers),
            connections=connections,
            play_events=play_events,
            stalls=stalls,
            startup_delay=startup_delay or 0.0,
            hosts=self._hosts,
            link_mean_bps=self.link.trace.mean_bps,
            scenario=scenario,
            policed=policed,
            path_stats=path_stats,
            **extra,
        )


class PlayerSession(SessionShell):
    """Simulates one playback session of ``video`` on ``profile``.

    Parameters
    ----------
    profile:
        The service being streamed (ABR, buffer sizes, TLS behaviour).
    video:
        The title to play.
    link, rng, tcp_params_factory:
        As for :class:`SessionShell`.
    watch_duration_s:
        Wall-clock viewing budget; the session ends at this time or
        when the content finishes playing, whichever is earlier.
    warm_start:
        The user navigated here from within the service (back-to-back
        viewing): the heavy player page is already cached and only a
        small navigation payload is fetched.
    behavior:
        Pauses and seeks drawn during playback (none by default).
    """

    def __init__(
        self,
        profile: ServiceProfile,
        video: Video,
        link: Link,
        rng: np.random.Generator,
        watch_duration_s: float,
        tcp_params_factory: Callable[[np.random.Generator], TcpParams],
        warm_start: bool = False,
        behavior: UserBehavior | None = None,
    ):
        super().__init__(profile, link, rng, watch_duration_s, tcp_params_factory)
        self.video = video
        self.warm_start = warm_start
        self.behavior = behavior
        self._n_pauses = 0
        self._n_seeks = 0
        self._throughput_bps: float | None = None

    def _observe_throughput(self, nbytes: int, seconds: float) -> None:
        """Feed the throughput estimator (an EWMA) one download sample."""
        if seconds <= 0:
            return
        sample = nbytes * 8.0 / seconds
        if self._throughput_bps is None:
            self._throughput_bps = sample
        else:
            self._throughput_bps = (
                _THROUGHPUT_EWMA_ALPHA * sample
                + (1.0 - _THROUGHPUT_EWMA_ALPHA) * self._throughput_bps
            )

    # ------------------------------------------------------------------
    def run(self) -> SessionTrace:
        """Execute the session and return its complete trace."""
        profile, video, rng = self.profile, self.video, self.rng

        # --- Startup sequence: player page, manifest, license. --------
        page_lo, page_hi = profile.page_bytes
        if self.warm_start:
            page_lo, page_hi = 40_000, 150_000
        page = self._fetch(
            0.0,
            ResourceType.PLAYER_PAGE,
            int(rng.integers(page_lo, page_hi)),
        )
        self._observe_throughput(page.response_bytes, self._transfers[-1].duration)
        t = page.end
        manifest = self._fetch(
            t, ResourceType.MANIFEST, int(rng.integers(*profile.manifest_bytes))
        )
        self._observe_throughput(manifest.response_bytes, self._transfers[-1].duration)
        t = manifest.end
        if profile.uses_drm_license:
            license_txn = self._fetch(
                t, ResourceType.LICENSE, int(rng.integers(2_000, 9_000))
            )
            t = license_txn.end

        # --- Segment loop. ---------------------------------------------
        abr = profile.make_abr()
        schedule = PlaybackSchedule(startup_buffer_s=profile.startup_buffer_s)
        watch_end = self.watch_duration_s
        beacon_interval = profile.beacon_interval_s
        next_beacon = beacon_interval
        last_quality: int | None = None
        n_segments = video.n_segments
        seg = 0
        while seg < n_segments and t < watch_end:
            next_beacon = self._fetch_due_beacons(next_beacon, t)
            state = AbrState(
                buffer_level_s=schedule.buffer_level(t),
                throughput_bps=self._throughput_bps,
                last_quality=last_quality,
                buffer_capacity_s=profile.buffer_capacity_s,
            )
            quality = abr.choose(state)
            if profile.abr_jitter > 0 and rng.random() < profile.abr_jitter:
                step = 1 if rng.random() < 0.5 else -1
                quality = max(0, min(quality + step, len(profile.ladder) - 1))
            size = video.segment_bytes(seg, quality)
            t = self._fetch_segment(t, seg, quality, size)
            schedule.segment_arrived(t, video.segment_play_duration(seg), quality)
            last_quality = quality

            if profile.separate_audio and seg % profile.audio_group == 0:
                group = range(seg, min(seg + profile.audio_group, n_segments))
                audio_bytes = sum(video.audio_segment_bytes(i) for i in group)
                audio = self._fetch(t, ResourceType.AUDIO_SEGMENT, audio_bytes)
                t = audio.end

            seg += 1
            if self.behavior is not None:
                seg = self._maybe_interact(t, seg, schedule)
            # Buffer-full pacing: wait until there is room for the next
            # segment.  These idle gaps are what let TLS idle timeouts
            # split a session into multiple transactions.
            if seg < n_segments:
                next_dur = video.segment_play_duration(seg)
                overflow = (
                    schedule.buffer_level(t) + next_dur - profile.buffer_capacity_s
                )
                if overflow > 0:
                    t += overflow

        # --- Wind down. --------------------------------------------------
        if not schedule.started:
            schedule.finish(min(t, watch_end))
        content_end = max(
            (e.end for e in schedule.events), default=min(t, watch_end)
        )
        if seg >= n_segments and t < watch_end:
            # Everything downloaded: the viewer watches until content or
            # patience runs out.
            pending = schedule.buffer_level(t)
            session_end = min(watch_end, t + pending) if pending else min(
                watch_end, max(content_end, t)
            )
        else:
            session_end = min(watch_end, max(t, content_end))
        schedule.finish(session_end)
        self._fetch_due_beacons(next_beacon, session_end)
        return self._close(
            session_end,
            video_id=video.video_id,
            play_events=list(schedule.events),
            stalls=list(schedule.stalls),
            startup_delay=schedule.startup_delay,
            n_pauses=self._n_pauses,
            n_seeks=self._n_seeks,
        )

    def _fetch_segment(self, at: float, seg: int, quality: int, size: int) -> float:
        """Download one video segment, possibly as several range requests.

        Returns the wall-clock completion time and feeds the throughput
        estimator one sample spanning the whole segment.
        """
        lo, hi = self.profile.range_requests_per_segment
        n_chunks = int(self.rng.integers(lo, hi + 1)) if hi > lo else lo
        n_chunks = max(1, min(n_chunks, size))
        # Equal chunks, truncated: bound i is int(i * step) and the last
        # is size exactly, the bounds np.linspace(0, size, n_chunks + 1)
        # gives when cast to int (stored corpora depend on them).
        step = size / n_chunks
        t = at
        first_start = None
        prev = 0
        for i in range(1, n_chunks + 1):
            bound = int(i * step) if i < n_chunks else size
            chunk, prev = bound - prev, bound
            if chunk <= 0:
                continue
            txn = self._fetch(t, ResourceType.VIDEO_SEGMENT, chunk, quality_index=quality)
            if first_start is None:
                first_start = self._transfers[-1].start
            t = txn.end
        if first_start is not None:
            self._observe_throughput(size, t - first_start)
        return t

    def _maybe_interact(self, t: float, seg: int, schedule: PlaybackSchedule) -> int:
        """Draw user interactions after one segment download.

        Pauses shift scheduled playback (downloads keep filling the
        buffer); forward seeks flush the buffer and jump the download
        position ahead.  Returns the possibly-updated segment index.
        """
        behavior = self.behavior
        minutes = self.profile.segment_duration_s / 60.0
        if behavior.pauses_per_minute > 0 and self.rng.random() < (
            behavior.pauses_per_minute * minutes
        ):
            duration = float(self.rng.uniform(*behavior.pause_duration_s))
            schedule.pause(at=t, duration=duration)
            self._n_pauses += 1
        if (
            behavior.seeks_per_minute > 0
            and seg < self.video.n_segments - 1
            and self.rng.random() < behavior.seeks_per_minute * minutes
        ):
            lo, hi = behavior.seek_segments
            jump = int(self.rng.integers(lo, hi + 1))
            schedule.seek_flush(at=t)
            seg = min(seg + jump, self.video.n_segments - 1)
            self._n_seeks += 1
        return seg

    def _fetch_due_beacons(self, next_beacon: float, now: float) -> float:
        """Issue every telemetry beacon due at or before ``now``."""
        while next_beacon <= now:
            self._fetch(
                next_beacon,
                ResourceType.BEACON,
                int(self.rng.integers(200, 800)),
                request_bytes=int(self.rng.integers(900, 2_500)),
            )
            next_beacon += self.profile.beacon_interval_s
        return next_beacon
