"""Resolved runtime configuration — the only module that reads the
environment.

Every knob the pipeline honours (``REPRO_JOBS``, ``REPRO_SCALE``,
``REPRO_CACHE_DIR``, ``REPRO_SMOKE``, ``REPRO_TRACE``,
``REPRO_SHARD_SIZE``) is parsed here, exactly once per distinct
environment, into one frozen :class:`Config`.  Downstream modules call
:func:`get_config` (or take a ``Config`` argument) instead of reading
``os.environ`` themselves — a lint gate (ruff ``TID251`` plus a CI
grep) forbids direct ``os.environ`` access anywhere else under
``src/repro``.  What a collection generates is never ambient: the
profile name and the scenario are arguments, and the retired
``REPRO_SCENARIO`` / ``REPRO_WORKLOAD`` are refused when set
(:data:`RETIRED_ENV_VARS`).

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
    "RETIRED_ENV_VARS",
    "SCALE_ENV_VAR",
    "SHARD_SIZE_ENV_VAR",
    "SMOKE_ENV_VAR",
    "TRACE_ENV_VAR",
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

#: The variables that participate in a :class:`Config`, in display order.
ENV_VARS = (
    JOBS_ENV_VAR,
    SCALE_ENV_VAR,
    CACHE_DIR_ENV_VAR,
    SMOKE_ENV_VAR,
    TRACE_ENV_VAR,
    SHARD_SIZE_ENV_VAR,
)

#: Variables that once chose what a collection generates, and what
#: replaces each.  A set value raises instead of being ignored, so a
#: shell that still exports one never silently collects a clean corpus
#: it meant to impair, or another workload than it named.
RETIRED_ENV_VARS = {
    "REPRO_SCENARIO": "the scenario= argument (CLI: --scenario)",
    "REPRO_WORKLOAD": "the profile name, service= (CLI: --service)",
}

#: Every variable :func:`get_config` watches.
_WATCHED = (*ENV_VARS, *RETIRED_ENV_VARS)

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


def _parse_trace(raw: str | None) -> tuple[bool, Path | None]:
    if raw is None or raw.strip().lower() in ("", "0", "false", "off", "no"):
        return False, None
    if raw.strip().lower() in ("1", "true", "on", "yes"):
        return True, Path(DEFAULT_TRACE_FILENAME)
    return True, Path(raw)


def _parse(snapshot: tuple[str | None, ...]) -> Config:
    """Build a :class:`Config` from a snapshot of the watched values."""
    raw = dict(zip(_WATCHED, snapshot))
    for var, replacement in RETIRED_ENV_VARS.items():
        if raw[var]:
            raise ValueError(
                f"{var} is no longer read; unset it and use {replacement}"
            )
    sources = {
        name: "env" if raw[var] not in (None, "") else "default"
        for name, var in (
            ("jobs", JOBS_ENV_VAR),
            ("scale", SCALE_ENV_VAR),
            ("cache_dir", CACHE_DIR_ENV_VAR),
            ("smoke", SMOKE_ENV_VAR),
            ("trace", TRACE_ENV_VAR),
            ("shard_size", SHARD_SIZE_ENV_VAR),
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
        sources=sources,
    )


# One parse per distinct environment: the cache key is the raw value
# tuple, so monkeypatched env changes are picked up on the next call
# while steady-state calls cost one dict lookup per watched variable.
_CACHED: tuple[tuple[str | None, ...], Config] | None = None

# Overrides are a stack so nested ``override()`` contexts compose.
_OVERRIDES: list[Config] = []


def _env_snapshot() -> tuple[str | None, ...]:
    return tuple(os.environ.get(var) for var in _WATCHED)


def get_config() -> Config:
    """The current resolved configuration.

    An active :func:`override` wins; otherwise the environment is
    (re-)parsed iff any watched variable changed since last call.
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
