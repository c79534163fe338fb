"""Playback buffer and schedule.

Tracks when each downloaded segment actually plays, when playback
stalls, and how much content is buffered at any instant.  The schedule
is the simulator's ground truth: the per-second (quality, stalled) log
the paper collected by instrumenting real players falls straight out of
it.
"""

from __future__ import annotations

import numpy as np

from repro.record import record

__all__ = ["PlayEvent", "Stall", "PlaybackSchedule"]


@record
class PlayEvent:
    """One segment's playback interval."""

    start: float
    end: float
    quality: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("play event ends before it starts")
        if self.quality < 0:
            raise ValueError("quality index must be non-negative")

    @property
    def duration(self) -> float:
        """Seconds of content played."""
        return self.end - self.start


@record
class Stall:
    """A re-buffering interval (playback started, then starved)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("stall ends before it starts")

    @property
    def duration(self) -> float:
        """Stall length in seconds."""
        return self.end - self.start


class PlaybackSchedule:
    """Accumulates segment arrivals into a playback timeline.

    Playback begins once ``startup_buffer_s`` of content has arrived
    (or on :meth:`finish` if the session ends sooner).  After playback
    starts, a segment arriving later than the moment the previous one
    finished playing opens a stall.

    The schedule is append-only and time must move forward: segments
    must be appended in arrival order.
    """

    def __init__(self, startup_buffer_s: float):
        if startup_buffer_s < 0:
            raise ValueError("startup buffer must be non-negative")
        self.startup_buffer_s = startup_buffer_s
        self.events: list[PlayEvent] = []
        self.stalls: list[Stall] = []
        self._pending: list[tuple[float, int]] = []  # (duration, quality)
        self._pending_arrival = 0.0
        self._started = False
        self._play_end = 0.0  # wall clock when scheduled content runs out
        self._last_arrival = 0.0
        self.startup_delay: float | None = None

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether playback has begun."""
        return self._started

    def buffer_level(self, t: float) -> float:
        """Seconds of unplayed content in the buffer at wall time ``t``."""
        if not self._started:
            return float(sum(d for d, _ in self._pending))
        return max(0.0, self._play_end - t)

    # ------------------------------------------------------------------
    def _start_playback(self, at: float) -> None:
        self._started = True
        self.startup_delay = at
        cursor = at
        for duration, quality in self._pending:
            self.events.append(PlayEvent(start=cursor, end=cursor + duration, quality=quality))
            cursor += duration
        self._pending = []
        self._play_end = cursor

    def segment_arrived(self, at: float, duration: float, quality: int) -> None:
        """Record that a segment finished downloading at wall time ``at``."""
        if duration <= 0:
            raise ValueError("segment duration must be positive")
        if at < self._last_arrival - 1e-9:
            raise ValueError("segments must arrive in time order")
        self._last_arrival = max(self._last_arrival, at)
        if not self._started:
            self._pending.append((duration, quality))
            self._pending_arrival = at
            if sum(d for d, _ in self._pending) >= self.startup_buffer_s:
                self._start_playback(at)
            return
        start = max(at, self._play_end)
        if start > self._play_end:
            self.stalls.append(Stall(start=self._play_end, end=start))
        self.events.append(PlayEvent(start=start, end=start + duration, quality=quality))
        self._play_end = start + duration

    # ------------------------------------------------------------------
    def pause(self, at: float, duration: float) -> None:
        """User pauses playback at ``at`` for ``duration`` seconds.

        Scheduled playback after ``at`` shifts by ``duration``; the
        event straddling ``at`` is split.  Paused time is neither play
        time nor stall time (it is user-intended).
        """
        if duration < 0:
            raise ValueError("pause duration must be non-negative")
        if not self._started or duration == 0:
            return
        new_events: list[PlayEvent] = []
        for event in self.events:
            if event.end <= at:
                new_events.append(event)
            elif event.start >= at:
                new_events.append(
                    PlayEvent(event.start + duration, event.end + duration, event.quality)
                )
            else:
                new_events.append(PlayEvent(event.start, at, event.quality))
                new_events.append(
                    PlayEvent(at + duration, event.end + duration, event.quality)
                )
        self.events = new_events
        self.stalls = [
            s if s.end <= at else Stall(s.start + duration, s.end + duration)
            for s in self.stalls
        ]
        if self._play_end > at:
            self._play_end += duration

    def seek_flush(self, at: float) -> None:
        """User seeks: buffered-but-unplayed content is discarded.

        Playback scheduled beyond ``at`` is dropped (the event
        straddling ``at`` is clipped); the next arriving segment plays
        as soon as it lands.  The waiting gap that follows shows up as
        a stall, matching how player-side instrumentation reports
        seek re-buffering.
        """
        if not self._started:
            self._pending = []
            return
        self._clip(at)
        self._play_end = min(self._play_end, at)

    # ------------------------------------------------------------------
    def finish(self, at: float) -> None:
        """End the session at wall time ``at``.

        Content that never reached the startup threshold begins playing
        at its arrival time (a player starts a short clip as soon as the
        download ends); scheduled playback beyond ``at`` is clipped —
        the viewer closed the player.
        """
        if not self._started and self._pending:
            self._start_playback(self._pending_arrival)
        self._clip(at)

    def _clip(self, at: float) -> None:
        self.events = [
            e if e.end <= at else PlayEvent(e.start, at, e.quality)
            for e in self.events
            if e.start < at
        ]
        self.stalls = [
            s if s.end <= at else Stall(s.start, at) for s in self.stalls if s.start < at
        ]
        if self._play_end > at:
            self._play_end = at

    # ------------------------------------------------------------------
    @property
    def play_time(self) -> float:
        """Total seconds of content played."""
        return float(sum(e.duration for e in self.events))

    @property
    def stall_time(self) -> float:
        """Total seconds spent stalled (excluding startup delay)."""
        return float(sum(s.duration for s in self.stalls))

    def per_second_quality(self, horizon: float | None = None) -> np.ndarray:
        """Ground-truth per-second log (paper §4.1).

        Returns an int array with one entry per second: the quality
        index playing during that second, ``-1`` if stalled, or ``-2``
        if nothing is happening (startup or post-session).  A second is
        attributed to whatever state covers its midpoint.
        """
        if horizon is None:
            ends = [e.end for e in self.events] + [s.end for s in self.stalls]
            horizon = max(ends, default=0.0)
        n = int(np.ceil(horizon))
        log = np.full(n, -2, dtype=np.int64)
        for s in self.stalls:
            i0, i1 = _second_span(s.start, s.end, n)
            log[i0:i1] = -1
        for e in self.events:
            i0, i1 = _second_span(e.start, e.end, n)
            log[i0:i1] = e.quality
        return log


def _second_span(start: float, end: float, n: int) -> tuple[int, int]:
    """Seconds whose midpoints fall in [start, end), clipped to [0, n)."""
    i0 = int(np.ceil(start - 0.5))
    i1 = int(np.ceil(end - 0.5))
    return max(0, i0), min(n, i1)
