"""Parallel execution layer.

The paper's pitch is that coarse-grained QoE inference is cheap enough
to run at ISP scale, so the reproduction should at least use the cores
it is given.  This module centralizes how the hot paths (corpus
collection, forest training, cross validation, experiment drivers) fan
work out over processes:

* :func:`resolve_jobs` turns an ``n_jobs`` argument plus the
  ``REPRO_JOBS`` environment variable into a concrete worker count
  (default: all cores; ``1`` forces the plain sequential code path);
  :func:`resolve_jobs_for` also drops to ``1`` when the payload every
  task ships does not pickle.
* :func:`parallel_map` is an ordered ``map`` over a reusable
  :class:`~concurrent.futures.ProcessPoolExecutor`, with a sequential
  fallback and recovery from broken pools.  Every caller hands it
  coarse tasks (a corpus shard or chunk, a batch of trees, a CV fold),
  so every item is its own pool task, submitted up front, and workers
  pull the next one as they free up.

Determinism is the callers' contract — every parallelized site draws
its per-task randomness up front (``SeedSequence.spawn`` for corpus
collection, pre-drawn per-tree seeds for the forest) so results are
bit-identical for any worker count.  Workers themselves always run
sequentially (nested pools would oversubscribe the machine), enforced
centrally here via a pool initializer.
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from repro import telemetry
from repro.config import JOBS_ENV_VAR, get_config, set_jobs

__all__ = [
    "JOBS_ENV_VAR",
    "resolve_jobs",
    "resolve_jobs_for",
    "parallel_map",
    "shutdown",
]

T = TypeVar("T")
R = TypeVar("R")

#: Set in pool workers so nested calls degrade to the sequential path.
_IN_WORKER = False

#: Executors are expensive to start (each worker re-imports numpy), so
#: they are cached per worker count and reused across calls.
_EXECUTORS: dict[int, ProcessPoolExecutor] = {}


def _worker_init() -> None:
    """Runs in every pool worker: force nested work sequential."""
    global _IN_WORKER
    _IN_WORKER = True
    set_jobs(1)


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Concrete worker count for an ``n_jobs`` argument.

    ``None`` defers to the resolved config's ``jobs`` (``REPRO_JOBS``,
    itself defaulting to ``os.cpu_count()``); ``-1`` means all cores;
    positive values are taken as-is.  Inside a pool worker this always
    returns 1.
    """
    if _IN_WORKER:
        return 1
    if n_jobs is None:
        n_jobs = get_config().jobs
        if n_jobs is None:
            n_jobs = -1
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return int(n_jobs)


def resolve_jobs_for(payload: object, n_jobs: int | None = None) -> int:
    """:func:`resolve_jobs` for tasks that all ship ``payload``.

    Custom profiles and models may close over unpicklable state; such a
    payload cannot cross the process boundary, so the work runs
    sequentially instead of failing.
    """
    jobs = resolve_jobs(n_jobs)
    if jobs > 1:
        try:
            pickle.dumps(payload)
        except Exception:
            return 1
    return jobs


def _executor(max_workers: int) -> ProcessPoolExecutor:
    executor = _EXECUTORS.get(max_workers)
    if executor is None:
        import multiprocessing

        # fork (where available) starts workers in milliseconds and
        # inherits loaded modules; spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        executor = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=context,
            initializer=_worker_init,
        )
        _EXECUTORS[max_workers] = executor
    return executor


def shutdown() -> None:
    """Shut down all cached executors (idempotent; used by tests)."""
    while _EXECUTORS:
        _, executor = _EXECUTORS.popitem()
        executor.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown)


class _TracedTask:
    """Wraps a task so worker-side telemetry rides back with the result.

    Each call runs under a fresh :func:`repro.telemetry.subtrace`; the
    exported events/counters return alongside the task's result and are
    merged into the parent tracer by :func:`parallel_map`.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[T], R]):
        self.fn = fn

    def __call__(self, item: T) -> tuple[R, dict]:
        with telemetry.subtrace() as tracer:
            result = self.fn(item)
        return result, tracer.export()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T] | Sequence[T],
    n_jobs: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]``, fanned out over processes.

    Results keep the input order, so callers that accumulate them
    sequentially get bit-identical floats regardless of worker count.
    Falls back to the plain loop when one worker is requested, there is
    at most one item, or the pool breaks (e.g. fork is unavailable in a
    sandbox) — the parallel path is an optimization, never a
    requirement.

    When telemetry is active, each task records into a private subtrace
    that is merged back (spans re-parented under the caller's open
    span, counters summed) — one trace covers the whole fan-out.

    ``fn`` and every item must be picklable (``fn`` at module level).
    """
    items = list(items)
    jobs = min(resolve_jobs(n_jobs), len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    tracer = telemetry.active_tracer()
    task = _TracedTask(fn) if tracer is not None else fn
    executor = _executor(jobs)
    try:
        raw = list(executor.map(task, items))
    except BrokenProcessPool:
        _EXECUTORS.pop(jobs, None)
        raw = [task(item) for item in items]
    if tracer is None:
        return raw
    results = []
    for result, sub in raw:
        tracer.merge_subtrace(sub)
        results.append(result)
    return results

