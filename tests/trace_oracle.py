"""The numpy bandwidth-trace code: golden oracle for the scalar code.

:class:`repro.net.bandwidth.BandwidthTrace` answers its per-request
queries with ``bisect`` over Python-list copies of its arrays.  This
module keeps the ``np.searchsorted`` implementations those queries
replaced, reading the public arrays (``times``, ``bandwidth_bps`` and
``_cum_bits``) of the same trace, so property tests can compare the
two with exact ``==`` on any trace and any valid query.  It also keeps
the AR(1) recurrence over a numpy array that the trace generators'
Python-float loop replaced (:func:`ar1_series`).
"""

from __future__ import annotations

import numpy as np

from repro.net.bandwidth import BandwidthTrace

__all__ = ["ar1_series", "bandwidth_at", "bits_between", "time_to_deliver"]


def bandwidth_at(trace: BandwidthTrace, t: float) -> float:
    """Instantaneous bandwidth (bps) at time ``t`` (cyclic)."""
    if t < 0:
        raise ValueError("time must be non-negative")
    phase = t % trace.duration
    idx = int(np.searchsorted(trace.times, phase, side="right") - 1)
    return float(trace.bandwidth_bps[idx])


def _cum_bits_at(trace: BandwidthTrace, t: float) -> float:
    """Cumulative bits delivered on [0, t], handling cycling."""
    cycles, phase = divmod(t, trace.duration)
    idx = int(np.searchsorted(trace.times, phase, side="right") - 1)
    within = trace._cum_bits[idx] + (phase - trace.times[idx]) * trace.bandwidth_bps[idx]
    return cycles * trace.total_bits + within


def bits_between(trace: BandwidthTrace, t0: float, t1: float) -> float:
    """Bits the link can deliver during ``[t0, t1]``."""
    if t1 < t0:
        raise ValueError("interval end precedes start")
    if t0 < 0:
        raise ValueError("time must be non-negative")
    return _cum_bits_at(trace, t1) - _cum_bits_at(trace, t0)


def time_to_deliver(trace: BandwidthTrace, t0: float, nbits: float) -> float:
    """Time (seconds, relative to ``t0``) to deliver ``nbits``."""
    if nbits < 0:
        raise ValueError("nbits must be non-negative")
    if nbits == 0:
        return 0.0
    target = _cum_bits_at(trace, t0) + nbits
    cycles, remainder = divmod(target, trace.total_bits)
    idx = int(np.searchsorted(trace._cum_bits, remainder, side="right") - 1)
    if idx >= trace.times.size:  # remainder == total_bits exactly
        idx = trace.times.size - 1
    within = trace.times[idx] + (remainder - trace._cum_bits[idx]) / trace.bandwidth_bps[idx]
    t_end = cycles * trace.duration + within
    return t_end - t0


def ar1_series(
    rng: np.random.Generator, n: int, mean: float, sigma: float, rho: float
) -> np.ndarray:
    """Mean-reverting AR(1) series in log-space around ``log(mean)``."""
    log_mean = np.log(mean)
    innovations = rng.normal(0.0, sigma * np.sqrt(1.0 - rho**2), size=n)
    deviations = np.empty(n)
    deviations[0] = rng.normal(0.0, sigma)
    for i in range(1, n):
        deviations[i] = rho * deviations[i - 1] + innovations[i]
    return np.exp(log_mean + deviations)
