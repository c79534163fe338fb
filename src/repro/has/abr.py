"""Adaptation (ABR) algorithms.

Four families; the first three cover the service designs the paper
describes, and BOLA is a widely deployed fourth used by the
application-design sensitivity study:

* :class:`ThroughputAbr` — rate-based: pick the highest rung that fits
  under a safety-scaled throughput estimate (FESTIVE-style).
* :class:`BufferBasedAbr` — BBA-style: map buffer occupancy linearly
  onto the ladder between a reservoir and a cushion.  With a large
  cushion this is the paper's Svc1 personality: it trades video quality
  for stall avoidance ("fills the buffer at the expense of streaming at
  low video quality").
* :class:`HybridAbr` — sticky: hold the current quality and only
  downswitch when the buffer runs low, upswitch when it is comfortably
  full.  This is the paper's Svc2 personality: poor networks drain the
  buffer at an unsustainable quality and the session rebuffers.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.has.video import QualityLadder
from repro.record import record

__all__ = [
    "AbrState",
    "AbrAlgorithm",
    "ThroughputAbr",
    "BufferBasedAbr",
    "HybridAbr",
    "BolaAbr",
]


@record
class AbrState:
    """Player state an ABR decision sees.

    Parameters
    ----------
    buffer_level_s:
        Seconds of content currently buffered.
    throughput_bps:
        Smoothed throughput estimate; ``None`` before the first sample.
    last_quality:
        Ladder index of the previous segment (``None`` at startup).
    buffer_capacity_s:
        Maximum buffer the player fills to.
    """

    buffer_level_s: float
    throughput_bps: float | None
    last_quality: int | None
    buffer_capacity_s: float


class AbrAlgorithm(abc.ABC):
    """Chooses the ladder index for the next segment."""

    def __init__(self, ladder: QualityLadder):
        self.ladder = ladder

    @abc.abstractmethod
    def choose(self, state: AbrState) -> int:
        """Quality index for the next segment given player ``state``."""

    def _clamp(self, index: int) -> int:
        return max(0, min(index, len(self.ladder) - 1))


class ThroughputAbr(AbrAlgorithm):
    """Rate-based adaptation with a safety margin.

    Picks the highest rung whose bitrate fits under
    ``safety * throughput`` and limits upward switches to one rung per
    decision to avoid oscillation.
    """

    def __init__(self, ladder: QualityLadder, safety: float = 0.8):
        super().__init__(ladder)
        if not 0 < safety <= 2.0:
            raise ValueError("safety must be in (0, 2]")
        self.safety = safety

    def choose(self, state: AbrState) -> int:
        if state.throughput_bps is None:
            return 0
        target = self.ladder.highest_sustainable(state.throughput_bps, self.safety)
        if state.last_quality is not None and target > state.last_quality + 1:
            target = state.last_quality + 1
        return self._clamp(target)


class BufferBasedAbr(AbrAlgorithm):
    """BBA-style buffer-mapped adaptation (Huang et al., SIGCOMM 2014).

    Below ``reservoir_s`` the lowest quality is requested; above
    ``cushion_s`` the highest; in between the ladder index grows
    linearly with buffer occupancy.  An optional throughput cap keeps
    the chosen rung within one step of what the network sustains,
    which real deployments add to avoid wasting a deep buffer on
    un-downloadable bitrates.
    """

    def __init__(
        self,
        ladder: QualityLadder,
        reservoir_s: float = 15.0,
        cushion_s: float = 120.0,
        throughput_cap_safety: float | None = 1.2,
    ):
        super().__init__(ladder)
        if reservoir_s < 0 or cushion_s <= reservoir_s:
            raise ValueError("need 0 <= reservoir < cushion")
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s
        self.throughput_cap_safety = throughput_cap_safety

    def choose(self, state: AbrState) -> int:
        top = len(self.ladder) - 1
        if state.buffer_level_s <= self.reservoir_s:
            target = 0
        elif state.buffer_level_s >= self.cushion_s:
            target = top
        else:
            frac = (state.buffer_level_s - self.reservoir_s) / (
                self.cushion_s - self.reservoir_s
            )
            target = int(round(frac * top))
        if self.throughput_cap_safety is not None and state.throughput_bps is not None:
            cap = self.ladder.highest_sustainable(
                state.throughput_bps, self.throughput_cap_safety
            )
            target = min(target, cap + 1)
        return self._clamp(target)


class BolaAbr(AbrAlgorithm):
    """BOLA: Lyapunov-based buffer control (Spiteri et al., INFOCOM'16).

    Each decision maximizes ``(V * (utility_q + gp) - Q) / size_q``
    over the ladder, where ``utility_q = ln(bitrate_q / bitrate_min)``,
    ``Q`` is the buffer level in segment units, and ``V``/``gp`` are
    derived from the configured target buffer so that the chosen
    quality saturates at the top rung when the buffer reaches the
    target.  Included both as a fourth realistic player personality and
    for the application-design sensitivity study
    (:mod:`repro.experiments.appdesign`).
    """

    def __init__(
        self,
        ladder: QualityLadder,
        segment_duration_s: float,
        target_buffer_s: float = 60.0,
        min_buffer_s: float = 10.0,
    ):
        super().__init__(ladder)
        if segment_duration_s <= 0:
            raise ValueError("segment duration must be positive")
        if not 0 < min_buffer_s < target_buffer_s:
            raise ValueError("need 0 < min_buffer < target_buffer")
        self.segment_duration_s = segment_duration_s
        bitrates = ladder.bitrates
        self._utilities = [float(u) for u in np.log(bitrates / bitrates[0])]
        # Standard BOLA parameter derivation (buffer levels in segments).
        q_max = target_buffer_s / segment_duration_s
        q_min = min_buffer_s / segment_duration_s
        top_utility = self._utilities[-1]
        self.gp = (top_utility * q_min / (q_max - q_min)) + 1.0
        self.V = (q_max - 1.0) / (top_utility + self.gp)

    def choose(self, state: AbrState) -> int:
        q_segments = state.buffer_level_s / self.segment_duration_s
        best, best_score = 0, None
        for index in range(len(self.ladder)):
            size = self.ladder[index].bitrate_bps  # proportional to bytes
            score = (
                self.V * (self._utilities[index] + self.gp) - q_segments
            ) / size
            if best_score is None or score > best_score:
                best, best_score = index, score
        return best


class HybridAbr(AbrAlgorithm):
    """Sticky quality with buffer-triggered switches.

    Startup picks the rung the throughput estimate sustains (but never
    below ``start_floor`` — services with a perceptual floor refuse to
    start ugly).  Afterwards the quality holds steady: it steps down a
    single rung only when the buffer falls below ``low_buffer_s`` and
    climbs one rung when the buffer exceeds ``high_buffer_s`` *and* the
    next rung fits under ``up_safety * throughput``.
    """

    def __init__(
        self,
        ladder: QualityLadder,
        low_buffer_s: float = 10.0,
        high_buffer_s: float = 30.0,
        start_safety: float = 1.0,
        up_safety: float = 0.85,
        start_floor: int = 0,
    ):
        super().__init__(ladder)
        if low_buffer_s < 0 or high_buffer_s <= low_buffer_s:
            raise ValueError("need 0 <= low_buffer < high_buffer")
        if not 0 <= start_floor < len(ladder):
            raise ValueError("start_floor must be a valid ladder index")
        self.low_buffer_s = low_buffer_s
        self.high_buffer_s = high_buffer_s
        self.start_safety = start_safety
        self.up_safety = up_safety
        self.start_floor = start_floor

    def choose(self, state: AbrState) -> int:
        if state.last_quality is None:
            if state.throughput_bps is None:
                return self.start_floor
            sustainable = self.ladder.highest_sustainable(
                state.throughput_bps, self.start_safety
            )
            # Services with a perceptual-quality floor refuse to *start*
            # below it; the buffer pays the price on slow links.
            return self._clamp(max(sustainable, self.start_floor))
        current = state.last_quality
        if state.buffer_level_s < self.low_buffer_s:
            # One rung at a time: the service holds on to quality as
            # long as it can, accepting stalls over sharp drops.
            return self._clamp(current - 1)
        if (
            state.buffer_level_s > self.high_buffer_s
            and state.throughput_bps is not None
            and current < len(self.ladder) - 1
            and self.ladder[current + 1].bitrate_bps
            <= state.throughput_bps * self.up_safety
        ):
            return self._clamp(current + 1)
        return current
