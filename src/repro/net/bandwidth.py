"""Synthetic bandwidth traces.

The paper streams sessions over emulated networks that replay publicly
available bandwidth traces: FCC fixed-broadband measurements, the Riiser
et al. 3G/HSDPA mobility traces, and the van der Hooft et al. 4G/LTE
traces.  Those datasets are not available offline, so this module
generates synthetic traces whose marginal statistics (range, burstiness,
outage behaviour) match the published descriptions:

* **FCC broadband** — stable, mostly 2-100 Mbps, low temporal variance.
* **3G/HSDPA (Riiser)** — 0-6 Mbps, strong variation and occasional
  outages as the recording vehicle moves through tunnels.
* **4G/LTE (van der Hooft)** — 0-95 Mbps, high mean but very bursty,
  with deep dips during handovers.

A trace is piecewise-constant bandwidth over time and repeats cyclically
when a session outlives it, mirroring how trace replay tools loop.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TraceFamily",
    "BandwidthTrace",
    "fcc_trace",
    "hsdpa_trace",
    "lte_trace",
    "generate_trace",
]

#: Bandwidth floor (bps).  Real cellular outages still trickle a little
#: data; a hard zero would make transfer times unbounded.
_MIN_BANDWIDTH_BPS = 8_000.0


class TraceFamily(str, enum.Enum):
    """The three network environments the paper draws traces from."""

    FCC = "fcc"
    HSDPA_3G = "3g"
    LTE = "lte"


@dataclass(frozen=True)
class BandwidthTrace:
    """A piecewise-constant bandwidth schedule.

    ``bandwidth_bps[i]`` holds from ``times[i]`` until ``times[i + 1]``
    (or until ``duration`` for the last interval).  The schedule repeats
    cyclically beyond ``duration``, so the trace is defined for every
    ``t >= 0``.

    Parameters
    ----------
    times:
        Interval start times in seconds.  Must start at ``0`` and be
        strictly increasing.
    bandwidth_bps:
        Bandwidth in bits per second for each interval.  Positive.
    duration:
        Total trace duration in seconds (end of the last interval).
    family:
        Which network environment the trace models.
    name:
        Human-readable identifier.
    """

    times: np.ndarray
    bandwidth_bps: np.ndarray
    duration: float
    family: TraceFamily
    name: str = "trace"
    #: Cumulative bits delivered at each interval boundary (one more
    #: entry than ``times``; the last is :attr:`total_bits`), built in
    #: ``__post_init__``.
    _cum_bits: np.ndarray = field(init=False, repr=False, compare=False)
    # Python-list copies of ``times``, ``bandwidth_bps`` and
    # ``_cum_bits``: the per-request queries below run on Python floats
    # and ``bisect``, which cost a fraction of one-element numpy calls
    # and do the same binary64 operations.
    _times_list: list = field(init=False, repr=False, compare=False)
    _bw_list: list = field(init=False, repr=False, compare=False)
    _cum_list: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        bw = np.asarray(self.bandwidth_bps, dtype=np.float64)
        if times.ndim != 1 or bw.ndim != 1 or times.shape != bw.shape:
            raise ValueError("times and bandwidth_bps must be 1-D and equal length")
        if times.size == 0:
            raise ValueError("trace must have at least one interval")
        if times[0] != 0.0:
            raise ValueError("trace must start at t=0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.duration <= times[-1]:
            raise ValueError("duration must exceed the last interval start")
        if np.any(bw <= 0):
            raise ValueError("bandwidth must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "bandwidth_bps", bw)
        widths = np.diff(np.append(times, self.duration))
        cum = np.concatenate([[0.0], np.cumsum(widths * bw)])
        object.__setattr__(self, "_cum_bits", cum)
        object.__setattr__(self, "_times_list", times.tolist())
        object.__setattr__(self, "_bw_list", bw.tolist())
        object.__setattr__(self, "_cum_list", cum.tolist())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_bits(self) -> float:
        """Bits delivered over one full cycle of the trace."""
        return self._cum_list[-1]

    @property
    def mean_bps(self) -> float:
        """Time-averaged bandwidth over one cycle."""
        return self.total_bits / self.duration

    def bandwidth_at(self, t: float) -> float:
        """Instantaneous bandwidth (bps) at time ``t`` (cyclic)."""
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t must be a finite non-negative time, got {t!r}")
        idx = bisect_right(self._times_list, t % self.duration) - 1
        return self._bw_list[idx]

    def _cum_bits_at(self, t: float) -> float:
        """Cumulative bits delivered on [0, t], handling cycling."""
        cycles, phase = divmod(t, self.duration)
        times = self._times_list
        idx = bisect_right(times, phase) - 1
        within = self._cum_list[idx] + (phase - times[idx]) * self._bw_list[idx]
        return cycles * self._cum_list[-1] + within

    def bits_between(self, t0: float, t1: float) -> float:
        """Bits the link can deliver during ``[t0, t1]``."""
        if not 0.0 <= t0 < math.inf:
            raise ValueError(f"t0 must be a finite non-negative time, got {t0!r}")
        if not t0 <= t1 < math.inf:
            raise ValueError(f"t1 must be finite and not precede t0, got {t1!r}")
        return self._cum_bits_at(t1) - self._cum_bits_at(t0)

    def time_to_deliver(self, t0: float, nbits: float) -> float:
        """Time (seconds, relative to ``t0``) to deliver ``nbits``.

        Inverts the cumulative-bits curve, so it is exact for the
        piecewise-constant schedule.
        """
        if not 0.0 <= t0 < math.inf:
            raise ValueError(f"t0 must be a finite non-negative time, got {t0!r}")
        if not 0.0 <= nbits < math.inf:
            raise ValueError(f"nbits must be finite and non-negative, got {nbits!r}")
        if nbits == 0:
            return 0.0
        cum = self._cum_list
        target = self._cum_bits_at(t0) + nbits
        cycles, remainder = divmod(target, cum[-1])
        # Find the interval whose cumulative range contains the
        # remainder (always below total_bits, so never past the last).
        idx = bisect_right(cum, remainder) - 1
        within = self._times_list[idx] + (remainder - cum[idx]) / self._bw_list[idx]
        t_end = cycles * self.duration + within
        return t_end - t0

    def average_bps(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Average bandwidth over ``[t0, t1]`` (defaults to one cycle)."""
        if t1 is None:
            t1 = t0 + self.duration
        if t1 <= t0:
            raise ValueError("interval must have positive length")
        return self.bits_between(t0, t1) / (t1 - t0)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _ar1_series(
    rng: np.random.Generator,
    n: int,
    mean: float,
    sigma: float,
    rho: float,
) -> np.ndarray:
    """Mean-reverting AR(1) series in log-space around ``log(mean)``.

    Log-space keeps the series positive and gives multiplicative
    variation, which matches how measured throughput fluctuates.
    """
    log_mean = np.log(mean)
    innovations = rng.normal(0.0, sigma * np.sqrt(1.0 - rho**2), size=n).tolist()
    # The recurrence runs on Python floats: the same binary64 multiply
    # and add per step as on numpy scalars, without their overhead.
    deviation = rng.normal(0.0, sigma)
    deviations = [deviation]
    for innovation in innovations[1:]:
        deviation = rho * deviation + innovation
        deviations.append(deviation)
    return np.exp(log_mean + np.array(deviations))


def fcc_trace(
    rng: np.random.Generator,
    duration: float = 1300.0,
    granularity: float = 5.0,
    mean_bps: float | None = None,
) -> BandwidthTrace:
    """Fixed-broadband trace in the style of the FCC MBA dataset.

    Stable links: the mean is drawn log-normally across the 2-100 Mbps
    range typical of the dataset, and temporal variation is mild.
    """
    if mean_bps is None:
        mean_bps = float(np.exp(rng.normal(np.log(8e6), 1.1)))
        mean_bps = float(np.clip(mean_bps, 8e5, 120e6))
    n = max(2, int(np.ceil(duration / granularity)))
    bw = _ar1_series(rng, n, mean_bps, sigma=0.45, rho=0.97)
    times = np.arange(n) * granularity
    return BandwidthTrace(
        times=times,
        bandwidth_bps=np.maximum(bw, _MIN_BANDWIDTH_BPS),
        duration=float(n * granularity),
        family=TraceFamily.FCC,
        name=f"fcc-{mean_bps / 1e6:.1f}mbps",
    )


def hsdpa_trace(
    rng: np.random.Generator,
    duration: float = 1300.0,
    granularity: float = 1.0,
    mean_bps: float | None = None,
) -> BandwidthTrace:
    """3G/HSDPA mobility trace in the style of Riiser et al.

    Low bandwidth (0.1-6 Mbps), heavy variation, and occasional outages
    (tunnels, coverage holes) lasting a few seconds.
    """
    if mean_bps is None:
        mean_bps = float(np.exp(rng.normal(np.log(1.2e6), 0.9)))
        mean_bps = float(np.clip(mean_bps, 1.0e5, 8e6))
    n = max(2, int(np.ceil(duration / granularity)))
    bw = _ar1_series(rng, n, mean_bps, sigma=0.95, rho=0.99)
    # Outages: a two-state process (tunnels, coverage holes) entered
    # every couple of minutes, lasting ~10 s on average.  How many
    # draws the walk makes depends on the draws, so it stays one call
    # per step.
    random, uniform = rng.random, rng.uniform
    p_enter = granularity / 120.0  # outage every ~2 min
    p_leave = granularity / 10.0  # mean outage ~10 s
    in_outage = False
    for i in range(n):
        if in_outage:
            bw[i] = uniform(_MIN_BANDWIDTH_BPS, 6e4)
            if random() < p_leave:
                in_outage = False
        elif random() < p_enter:
            in_outage = True
    times = np.arange(n) * granularity
    return BandwidthTrace(
        times=times,
        bandwidth_bps=np.maximum(bw, _MIN_BANDWIDTH_BPS),
        duration=float(n * granularity),
        family=TraceFamily.HSDPA_3G,
        name=f"3g-{mean_bps / 1e6:.2f}mbps",
    )


def lte_trace(
    rng: np.random.Generator,
    duration: float = 1300.0,
    granularity: float = 1.0,
    mean_bps: float | None = None,
) -> BandwidthTrace:
    """4G/LTE mobility trace in the style of van der Hooft et al.

    High mean (up to ~95 Mbps) but bursty, with deep dips during
    handovers and congestion.
    """
    if mean_bps is None:
        mean_bps = float(np.exp(rng.normal(np.log(15e6), 1.1)))
        mean_bps = float(np.clip(mean_bps, 6e5, 95e6))
    n = max(2, int(np.ceil(duration / granularity)))
    bw = _ar1_series(rng, n, mean_bps, sigma=0.85, rho=0.985)
    # Handover dips: short multiplicative crashes.
    dip_mask = rng.random(n) < granularity / 90.0
    bw[dip_mask] *= rng.uniform(0.02, 0.2, size=int(dip_mask.sum()))
    times = np.arange(n) * granularity
    return BandwidthTrace(
        times=times,
        bandwidth_bps=np.maximum(bw, _MIN_BANDWIDTH_BPS),
        duration=float(n * granularity),
        family=TraceFamily.LTE,
        name=f"lte-{mean_bps / 1e6:.1f}mbps",
    )


_GENERATORS = {
    TraceFamily.FCC: fcc_trace,
    TraceFamily.HSDPA_3G: hsdpa_trace,
    TraceFamily.LTE: lte_trace,
}

def generate_trace(
    family: TraceFamily | str,
    rng: np.random.Generator,
    duration: float = 1300.0,
    mean_bps: float | None = None,
) -> BandwidthTrace:
    """Generate one trace of the given family."""
    family = TraceFamily(family)
    return _GENERATORS[family](rng, duration=duration, mean_bps=mean_bps)

