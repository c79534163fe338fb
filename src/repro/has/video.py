"""Video content model.

In HAS a video is split into fixed-duration segments, each encoded at
every rung of a quality ladder.  Real encodings are variable-bitrate:
segment sizes fluctuate with scene complexity, and *different titles at
the same resolution have very different bitrates*.  Both effects are
modelled here because they are what separates the wire-visible signal
(bytes) from the QoE label (resolution category) — the paper's
classifiers top out around 70-80% accuracy largely because bytes do not
map one-to-one onto resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QualityLevel", "QualityLadder", "Video", "VideoCatalog"]


@dataclass(frozen=True)
class QualityLevel:
    """One rung of an encoding ladder.

    Parameters
    ----------
    name:
        Human-readable label, e.g. ``"480p"``.
    resolution:
        Vertical resolution in lines (used by the paper's
        resolution-based QoE thresholds).
    bitrate_bps:
        Nominal encoding bitrate for an average-complexity title.
    """

    name: str
    resolution: int
    bitrate_bps: float

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")


@dataclass(frozen=True)
class QualityLadder:
    """An ascending sequence of quality levels."""

    levels: tuple[QualityLevel, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("ladder must have at least one level")
        bitrates = [lv.bitrate_bps for lv in self.levels]
        resolutions = [lv.resolution for lv in self.levels]
        if bitrates != sorted(bitrates) or resolutions != sorted(resolutions):
            raise ValueError("ladder must ascend in bitrate and resolution")

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, index: int) -> QualityLevel:
        return self.levels[index]

    @property
    def bitrates(self) -> np.ndarray:
        """Nominal bitrates (bps) of all levels, ascending."""
        return np.array([lv.bitrate_bps for lv in self.levels])

    def highest_sustainable(self, throughput_bps: float, safety: float = 1.0) -> int:
        """Highest level whose bitrate fits within ``safety * throughput``.

        Returns ``0`` when even the lowest rung does not fit.
        """
        if safety <= 0:
            raise ValueError("safety must be positive")
        budget = throughput_bps * safety
        best = 0
        for i, level in enumerate(self.levels):
            if level.bitrate_bps <= budget:
                best = i
        return best


@dataclass(frozen=True)
class Video:
    """One title: a quality ladder plus a concrete VBR size realization.

    Parameters
    ----------
    video_id:
        Identifier within the catalog.
    duration_s:
        Content length in seconds.
    segment_duration_s:
        Segment length; the last segment may be shorter.
    ladder:
        The encoding ladder.
    complexity:
        Title-level bitrate multiplier (scene complexity): a 1080p
        cartoon and a 1080p sports stream differ by 2-3x in bytes.
    vbr_multipliers:
        Per-segment size multipliers shared across quality levels
        (complex scenes are bigger at every rung).
    level_multipliers:
        Per-quality-level encoding jitter: titles are not encoded at
        exactly the ladder's nominal bitrates, so the byte→resolution
        mapping is ambiguous on the wire.  ``None`` means no jitter.
    audio_bitrate_bps:
        Bitrate of the (constant-quality) audio track.
    """

    video_id: str
    duration_s: float
    segment_duration_s: float
    ladder: QualityLadder
    complexity: float
    vbr_multipliers: np.ndarray = field(repr=False)
    level_multipliers: np.ndarray | None = field(default=None, repr=False)
    audio_bitrate_bps: float = 128_000.0
    #: Segment count, computed once (the player asks per request).
    _n_segments: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.segment_duration_s <= 0:
            raise ValueError("durations must be positive")
        object.__setattr__(
            self, "_n_segments", math.ceil(self.duration_s / self.segment_duration_s)
        )
        if self.complexity <= 0:
            raise ValueError("complexity must be positive")
        if len(self.vbr_multipliers) != self.n_segments:
            raise ValueError("need one VBR multiplier per segment")
        if np.any(np.asarray(self.vbr_multipliers) <= 0):
            raise ValueError("VBR multipliers must be positive")
        if self.level_multipliers is not None:
            if len(self.level_multipliers) != len(self.ladder):
                raise ValueError("need one level multiplier per ladder rung")
            if np.any(np.asarray(self.level_multipliers) <= 0):
                raise ValueError("level multipliers must be positive")

    @property
    def n_segments(self) -> int:
        """Number of segments (last one possibly short)."""
        return self._n_segments

    def segment_play_duration(self, index: int) -> float:
        """Playback seconds of segment ``index``."""
        self._check_index(index)
        return self._play_duration(index)

    def _play_duration(self, index: int) -> float:
        """:meth:`segment_play_duration` of an index already checked."""
        full = self.segment_duration_s
        if index == self._n_segments - 1:
            remainder = self.duration_s - full * (self._n_segments - 1)
            return remainder if remainder > 0 else full
        return full

    def segment_bytes(self, index: int, quality: int) -> int:
        """Encoded size in bytes of segment ``index`` at ladder ``quality``."""
        self._check_index(index)
        level = self.ladder[quality]
        seconds = self._play_duration(index)
        size = (
            level.bitrate_bps
            * seconds
            / 8.0
            * self.complexity
            * float(self.vbr_multipliers[index])
        )
        if self.level_multipliers is not None:
            size *= float(self.level_multipliers[quality])
        return max(1, round(size))

    def audio_segment_bytes(self, index: int) -> int:
        """Encoded size of the audio track for segment ``index``."""
        self._check_index(index)
        seconds = self._play_duration(index)
        return max(1, round(self.audio_bitrate_bps * seconds / 8.0))

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._n_segments:
            raise ValueError(f"segment index {index} out of range")


class VideoCatalog:
    """A service's content library (the paper curates 50-75 titles).

    Titles vary in duration and complexity; each is generated
    deterministically from the catalog seed so repeated runs see the
    same library.
    """

    def __init__(
        self,
        ladder: QualityLadder,
        segment_duration_s: float,
        n_videos: int = 60,
        seed: int = 0,
        min_duration_s: float = 120.0,
        max_duration_s: float = 2400.0,
        audio_bitrate_bps: float = 128_000.0,
        complexity_sigma: float = 0.55,
        level_jitter_sigma: float = 0.18,
    ):
        if n_videos < 1:
            raise ValueError("catalog needs at least one video")
        if min_duration_s <= 0 or max_duration_s < min_duration_s:
            raise ValueError("invalid duration range")
        if complexity_sigma < 0 or level_jitter_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        self.ladder = ladder
        self.segment_duration_s = segment_duration_s
        rng = np.random.default_rng(seed)
        self._videos: list[Video] = []
        for i in range(n_videos):
            duration = float(
                np.exp(rng.uniform(np.log(min_duration_s), np.log(max_duration_s)))
            )
            n_segments = int(np.ceil(duration / segment_duration_s))
            # Scene complexity: lognormal around 1 with heavy spread —
            # the main reason bytes do not identify resolution.
            complexity = float(
                np.clip(np.exp(rng.normal(0.0, complexity_sigma)), 0.3, 3.0)
            )
            vbr = np.clip(np.exp(rng.normal(0.0, 0.25, size=n_segments)), 0.4, 2.5)
            level_jitter = np.exp(
                rng.normal(0.0, level_jitter_sigma, size=len(ladder))
            )
            self._videos.append(
                Video(
                    video_id=f"video-{i:03d}",
                    duration_s=duration,
                    segment_duration_s=segment_duration_s,
                    ladder=ladder,
                    complexity=complexity,
                    vbr_multipliers=vbr,
                    level_multipliers=level_jitter,
                    audio_bitrate_bps=audio_bitrate_bps,
                )
            )

    def __len__(self) -> int:
        return len(self._videos)

    def __getitem__(self, index: int) -> Video:
        return self._videos[index]

    def sample(self, rng: np.random.Generator) -> Video:
        """Draw one title uniformly at random."""
        return self._videos[int(rng.integers(len(self._videos)))]
