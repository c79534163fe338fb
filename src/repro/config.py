"""Resolved runtime configuration — the only module that reads the
environment.

Every knob the pipeline honours (``REPRO_JOBS``, ``REPRO_SCALE``,
``REPRO_CACHE_DIR``, ``REPRO_SMOKE``, ``REPRO_TRACE``,
``REPRO_SHARD_SIZE``, ``REPRO_SCENARIO``, ``REPRO_WORKLOAD``) is parsed here,
exactly once per distinct environment, into one frozen
:class:`Config`.  Downstream modules call :func:`get_config` (or take
a ``Config`` argument) instead of reading ``os.environ`` themselves —
a lint gate (ruff ``TID251`` plus a CI grep) forbids direct
``os.environ`` access anywhere else under ``src/repro``.

Why one place matters: the knobs interact (worker processes must see
``jobs=1``; the CLI ``--jobs``/``--trace`` flags override the
environment; tests redirect the cache to a tmpdir), and scattering
``os.environ.get`` calls made those interactions untestable without
monkeypatching the process environment.  Tests now use
:func:`override`::

    with repro.config.override(cache_dir=tmp_path):
        cli.main(["cache", "info"])   # reads the tmpdir, env untouched

:func:`get_config` re-parses only when the watched variables actually
change, so calling it in hot paths costs a few dict lookups, not a
parse.  ``python -m repro config show`` prints the resolved values and
where each came from.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "Config",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_TRACE_FILENAME",
    "ENV_VARS",
    "JOBS_ENV_VAR",
    "SCALE_ENV_VAR",
    "SCENARIO_ENV_VAR",
    "SHARD_SIZE_ENV_VAR",
    "SMOKE_ENV_VAR",
    "TRACE_ENV_VAR",
    "WORKLOAD_ENV_VAR",
    "get_config",
    "override",
    "set_env_default",
    "set_jobs",
]

JOBS_ENV_VAR = "REPRO_JOBS"
SCALE_ENV_VAR = "REPRO_SCALE"
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
SMOKE_ENV_VAR = "REPRO_SMOKE"
TRACE_ENV_VAR = "REPRO_TRACE"
SHARD_SIZE_ENV_VAR = "REPRO_SHARD_SIZE"
SCENARIO_ENV_VAR = "REPRO_SCENARIO"
WORKLOAD_ENV_VAR = "REPRO_WORKLOAD"

#: The variables that participate in a :class:`Config`, in display order.
ENV_VARS = (
    JOBS_ENV_VAR,
    SCALE_ENV_VAR,
    CACHE_DIR_ENV_VAR,
    SMOKE_ENV_VAR,
    TRACE_ENV_VAR,
    SHARD_SIZE_ENV_VAR,
    SCENARIO_ENV_VAR,
    WORKLOAD_ENV_VAR,
)

#: Sessions per shard when neither the caller nor ``REPRO_SHARD_SIZE``
#: says otherwise — large enough to amortize per-shard overhead, small
#: enough that a materialized shard is tens of megabytes.
DEFAULT_SHARD_SIZE = 512

#: Where ``REPRO_TRACE=1`` writes its trace (relative to the cwd);
#: any other truthy ``REPRO_TRACE`` value is taken as the path itself.
DEFAULT_TRACE_FILENAME = "repro-trace.jsonl"


@dataclass(frozen=True)
class Config:
    """The resolved knobs, parsed from the environment in one place.

    Attributes
    ----------
    jobs:
        Worker-process count for the parallel layer; ``None`` means
        "all cores" (``REPRO_JOBS`` unset, empty, or ``-1``).
    scale:
        Multiplier on the paper's corpus sizes (``REPRO_SCALE``).
    cache_dir:
        Artifact-store root (``REPRO_CACHE_DIR``).
    smoke:
        Whether the slow cold/warm smoke suite is enabled
        (``REPRO_SMOKE=1``).
    trace:
        Whether pipeline telemetry records spans/counters
        (``REPRO_TRACE``; off by default, so the instrumented hot
        paths run module-level no-op singletons).
    trace_path:
        Where a CLI/run_all trace session flushes its JSONL file;
        ``None`` leaves the trace in memory (library use).
    shard_size:
        Sessions per shard of every corpus written without an explicit
        size, experiment corpora included (``REPRO_SHARD_SIZE``;
        default :data:`DEFAULT_SHARD_SIZE`).
    scenario:
        Network-impairment scenario every collection run streams over
        (``REPRO_SCENARIO``; default ``"identity"``, the unimpaired
        pipeline).  The name is validated against the scenario registry
        at collection time, not here — config must stay importable
        without :mod:`repro.net`.
    workload:
        Traffic workload every collection run generates
        (``REPRO_WORKLOAD``; default ``"has"``, the paper's on-demand
        HTTP adaptive streaming services).  The name is validated
        against the workload registry at collection time, not here —
        config must stay importable without :mod:`repro.workloads`.
    sources:
        ``field name -> provenance`` ("env", "default", or an override
        label such as "--trace"), for ``config show``.
    """

    jobs: int | None = None
    scale: float = 1.0
    cache_dir: Path = field(default_factory=lambda: Path.cwd() / ".cache")
    smoke: bool = False
    trace: bool = False
    trace_path: Path | None = None
    shard_size: int = DEFAULT_SHARD_SIZE
    scenario: str = "identity"
    workload: str = "has"
    sources: Mapping[str, str] = field(
        default_factory=dict, compare=False, repr=False
    )

    def describe(self) -> list[tuple[str, str, str, str]]:
        """``(field, value, env var, source)`` rows for ``config show``."""
        trace_value = "off"
        if self.trace:
            trace_value = f"on -> {self.trace_path}" if self.trace_path else "on"
        rows = [
            ("jobs", "all cores" if self.jobs is None else str(self.jobs), JOBS_ENV_VAR),
            ("scale", str(self.scale), SCALE_ENV_VAR),
            ("cache_dir", str(self.cache_dir), CACHE_DIR_ENV_VAR),
            ("smoke", str(self.smoke), SMOKE_ENV_VAR),
            ("trace", trace_value, TRACE_ENV_VAR),
            ("shard_size", str(self.shard_size), SHARD_SIZE_ENV_VAR),
            ("scenario", self.scenario, SCENARIO_ENV_VAR),
            ("workload", self.workload, WORKLOAD_ENV_VAR),
        ]
        return [
            (name, value, var, self.sources.get(name, "default"))
            for name, value, var in rows
        ]


def _parse_jobs(raw: str | None) -> int | None:
    if raw is None or raw == "":
        return None
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV_VAR} must be an integer (>= 1 or -1), got {raw!r}"
        ) from None
    if jobs == -1:
        return None
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV_VAR} must be >= 1 or -1, got {jobs}")
    return jobs


def _parse_scale(raw: str | None) -> float:
    if raw is None or raw == "":
        return 1.0
    value = float(raw)
    if value <= 0:
        raise ValueError("REPRO_SCALE must be positive")
    return value


def _parse_shard_size(raw: str | None) -> int:
    if raw is None or raw == "":
        return DEFAULT_SHARD_SIZE
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{SHARD_SIZE_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{SHARD_SIZE_ENV_VAR} must be >= 1, got {value}")
    return value


def _parse_scenario(raw: str | None) -> str:
    if raw is None or not raw.strip():
        return "identity"
    # Name validation (with the list of registered scenarios in the
    # error) happens in repro.net.scenarios at collection time.
    return raw.strip()


def _parse_workload(raw: str | None) -> str:
    if raw is None or not raw.strip():
        return "has"
    # Name validation (with the list of registered workloads in the
    # error) happens in repro.workloads at collection time.
    return raw.strip()


def _parse_trace(raw: str | None) -> tuple[bool, Path | None]:
    if raw is None or raw.strip().lower() in ("", "0", "false", "off", "no"):
        return False, None
    if raw.strip().lower() in ("1", "true", "on", "yes"):
        return True, Path(DEFAULT_TRACE_FILENAME)
    return True, Path(raw)


def _parse(snapshot: tuple[str | None, ...]) -> Config:
    """Build a :class:`Config` from an :data:`ENV_VARS` value snapshot."""
    raw = dict(zip(ENV_VARS, snapshot))
    sources = {
        name: "env" if raw[var] not in (None, "") else "default"
        for name, var in (
            ("jobs", JOBS_ENV_VAR),
            ("scale", SCALE_ENV_VAR),
            ("cache_dir", CACHE_DIR_ENV_VAR),
            ("smoke", SMOKE_ENV_VAR),
            ("trace", TRACE_ENV_VAR),
            ("shard_size", SHARD_SIZE_ENV_VAR),
            ("scenario", SCENARIO_ENV_VAR),
            ("workload", WORKLOAD_ENV_VAR),
        )
    }
    sources["trace_path"] = sources["trace"]
    trace, trace_path = _parse_trace(raw[TRACE_ENV_VAR])
    cache_raw = raw[CACHE_DIR_ENV_VAR]
    return Config(
        jobs=_parse_jobs(raw[JOBS_ENV_VAR]),
        scale=_parse_scale(raw[SCALE_ENV_VAR]),
        cache_dir=Path(cache_raw) if cache_raw else Path.cwd() / ".cache",
        smoke=raw[SMOKE_ENV_VAR] == "1",
        trace=trace,
        trace_path=trace_path,
        shard_size=_parse_shard_size(raw[SHARD_SIZE_ENV_VAR]),
        scenario=_parse_scenario(raw[SCENARIO_ENV_VAR]),
        workload=_parse_workload(raw[WORKLOAD_ENV_VAR]),
        sources=sources,
    )


# One parse per distinct environment: the cache key is the raw value
# tuple, so monkeypatched env changes are picked up on the next call
# while steady-state calls cost five dict lookups.
_CACHED: tuple[tuple[str | None, ...], Config] | None = None

# Overrides are a stack so nested ``override()`` contexts compose.
_OVERRIDES: list[Config] = []


def _env_snapshot() -> tuple[str | None, ...]:
    return tuple(os.environ.get(var) for var in ENV_VARS)


def get_config() -> Config:
    """The current resolved configuration.

    An active :func:`override` wins; otherwise the environment is
    (re-)parsed iff any of :data:`ENV_VARS` changed since last call.
    """
    if _OVERRIDES:
        return _OVERRIDES[-1]
    global _CACHED
    snapshot = _env_snapshot()
    if _CACHED is None or _CACHED[0] != snapshot:
        _CACHED = (snapshot, _parse(snapshot))
    return _CACHED[1]


@contextmanager
def override(_source: str = "override", **changes: object) -> Iterator[Config]:
    """Pin configuration fields for a ``with`` block (no env mutation).

    ``changes`` are :class:`Config` field values; everything else keeps
    the enclosing resolution.  Used by tests (point ``cache_dir`` at a
    tmpdir) and by CLI flags (``--trace`` labels itself via
    ``_source``).
    """
    base = get_config()
    sources = dict(base.sources)
    for name in changes:
        sources[name] = _source
    config = dataclasses.replace(base, sources=sources, **changes)
    _OVERRIDES.append(config)
    try:
        yield config
    finally:
        _OVERRIDES.pop()


def set_jobs(jobs: int) -> None:
    """Export a worker count to this process *and* its children.

    The parallel layer spawns worker processes that re-resolve their
    own configuration, so a plain :func:`override` (process-local)
    is not enough: the CLI ``--jobs`` flag and the pool's own
    "workers run sequentially" rule both need the environment updated.
    This is the one sanctioned env write outside the parser.
    """
    if jobs < 1 and jobs != -1:
        raise ValueError(f"jobs must be >= 1 or -1, got {jobs}")
    os.environ[JOBS_ENV_VAR] = str(jobs)


def set_env_default(var: str, value: str) -> None:
    """``os.environ.setdefault`` for a repro knob (test/bench harnesses)."""
    if var not in ENV_VARS:
        raise ValueError(f"unknown repro env var {var!r}")
    os.environ.setdefault(var, value)
