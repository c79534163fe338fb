"""The host's CPU speed, sampled while the benchmark runs.

On a shared host the speed of a core drifts by a fifth or more from one
minute to the next, with the load of other tenants, so a wall time alone
says as much about the neighbours as about the program.  A background
thread therefore times a fixed pure-Python kernel every ``INTERVAL_S``
by its own CPU clock (time spent waiting for the GIL or for a core is
not counted), and a wall time ``w`` measured over an interval is
reported at the reference speed as

    w * REFERENCE_KERNEL_S * mean(1 / kernel CPU times within the interval)

so a program change moves it in proportion while a slower host does not.
The host flips between speeds up to 2x apart within seconds, so the
samples are averaged as speeds (the mean of 1/t), as the program's work
accumulates over the interval, not as a median that would jump from one
speed to the other.  The cores' speeds drift independently, so before
each sample the thread moves to the core the main thread last ran on
while it runs, and to the next core in turn while it sleeps waiting for
its workers.
The kernel holds the GIL throughout, so a worker forked meanwhile never
inherits a thread stopped inside numpy or the allocator.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: Seconds between the starts of two kernel samples.
INTERVAL_S = 0.1
#: The kernel's CPU time at the reference speed, about its median on a
#: 2-vCPU x86-64 VM under Python 3.11.
REFERENCE_KERNEL_S = 0.0013
#: Fewer samples than this inside an interval: use the whole run's.
MIN_SAMPLES = 5


def main_thread_state() -> tuple[str, int] | None:
    """The process's main thread's state letter and the core it last ran
    on (Linux), else None."""
    try:
        with open("/proc/self/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[36])  # fields 3 and 39, counted after the name


def kernel(n: int = 6000) -> int:
    """Interpreter work of a fixed size: arithmetic and dict updates."""
    table: dict = {}
    acc = 0
    for i in range(n):
        k = i % 61
        table[k] = table.get(k, 0) + i * i
        acc ^= table[k] >> 3
    return acc


class SpeedSampler:
    """Samples the kernel's CPU time from a daemon thread until stopped."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        try:
            cores = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            cores = []
        turn = 0
        while not self._stop.wait(INTERVAL_S):
            main = main_thread_state()
            if main is not None and cores:
                state, cpu = main
                if state != "R":
                    turn += 1
                    cpu = cores[turn % len(cores)]
                try:
                    os.sched_setaffinity(0, {cpu})  # this thread only
                except OSError:
                    pass
            t0 = time.thread_time()
            kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def kernel_s(self, start: float | None = None, end: float | None = None) -> float:
        """The kernel's CPU time at the mean speed over [start, end] (the
        harmonic mean of the samples there), or over the whole run when
        the interval holds too few."""
        samples = list(self.samples)
        inside = [cpu for at, cpu in samples if start is not None and start <= at <= end]
        if len(inside) < MIN_SAMPLES:
            inside = [cpu for _, cpu in samples]
        return statistics.harmonic_mean(inside)

    def at_reference(self, wall: float, start: float, end: float) -> float:
        """``wall`` seconds measured over [start, end], at the reference speed."""
        return wall * REFERENCE_KERNEL_S / self.kernel_s(start, end)
