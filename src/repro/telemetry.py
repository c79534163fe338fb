"""Pipeline telemetry: hierarchical spans, counters, JSONL traces.

The paper's pitch is a systems claim — QoE inference from ~1400x less
data and ~60x less compute than packet traces — so the reproduction
must be able to account for its own wall-clock, CPU and cache
behaviour.  This module is that accounting layer:

* :func:`span` — a context manager timing one pipeline stage (wall
  via ``perf_counter``, CPU via ``process_time``), nesting into
  whatever span is currently open.  Attributes describe the work
  (``span("collect_corpus", service="svc1", n_sessions=422)``) and
  can be added after the fact with ``sp.set(rows=...)``.
* :func:`count` / :func:`gauge` / :func:`observe` — monotonic
  counters, last-write gauges, and summary histograms
  (count/sum/min/max).  The artifact store feeds per-stage
  ``cache.<stage>.{memory_hit,hit,miss}`` counters through here.
* :func:`tracing` — installs the process-wide :class:`Tracer` and, on
  exit, flushes one JSONL trace file (atomic temp + ``os.replace``).
* :func:`subtrace` + :meth:`Tracer.merge_subtrace` — worker processes
  record into a private tracer whose events/counters ride back with
  the task result and are re-parented under the caller's open span
  (see :mod:`repro.parallel`), so one trace covers the whole fan-out.

**Disabled is the default and costs nothing measurable.**  When no
tracer is installed (``REPRO_TRACE=0``), :func:`span` returns the
module-level :data:`NOOP_SPAN` singleton — no allocation, no
timestamps, no attribute handling — and the metric functions are a
single ``is None`` test.  Tier-1 tests and production hot paths run in
this mode; ``benchmarks/test_bench_telemetry.py`` holds the enabled
mode to its ≤5% overhead budget.

Trace file schema (one JSON object per line), version 1:

* ``{"type": "meta", "version": 1, "wall_s": ..., "cpu_s": ...,
  "pid": ...}`` — first line, totals for the whole trace session.
* ``{"type": "span", "id": int, "parent": int|null, "name": str,
  "t0": float, "wall_s": float, "cpu_s": float, "attrs": {...}?,
  "worker": true?, "error": str?}`` — one per closed span; ``t0`` is
  seconds since the tracer (or, for worker spans, the worker task)
  started.
* ``{"type": "counter"|"gauge", "name": str, "value": number}``
* ``{"type": "hist", "name": str, "count": int, "sum": float,
  "min": float, "max": float}``

:func:`validate_trace` checks exactly this contract (CI runs it on
the smoke trace artifact); :func:`render_report` turns a trace into
the ``python -m repro trace report`` stage tree, and
:func:`render_diff` sets two traces side by side, span path by span
path (``python -m repro trace diff A B``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "NOOP_SPAN",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceValidationError",
    "Tracer",
    "active_tracer",
    "count",
    "gauge",
    "maybe_tracing",
    "observe",
    "read_trace",
    "render_diff",
    "render_report",
    "span",
    "subtrace",
    "tracing",
    "validate_trace",
]

TRACE_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Spans


class _NoopSpan:
    """The span returned while telemetry is disabled.

    A module-level singleton with no state: entering, exiting and
    ``set`` are empty methods, so an instrumented hot path executes no
    telemetry code beyond one ``is None`` test per ``span()`` call.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


#: The singleton :func:`span` hands out when no tracer is installed.
NOOP_SPAN = _NoopSpan()


def _json_safe(value: Any) -> Any:
    """Coerce a span attribute to a JSON-serializable value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


class Span:
    """One timed, attributed stage in the trace tree."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "t0", "_cpu0", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict[str, Any],
        span_id: int,
        parent_id: int | None,
    ):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = 0.0
        self._cpu0 = 0.0

    def set(self, **attrs: object) -> "Span":
        """Attach attributes discovered mid-stage (shapes, outcomes)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self.t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self.t0
        cpu = time.process_time() - self._cpu0
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        event: dict[str, Any] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": round(self.t0 - tracer.epoch, 6),
            "wall_s": round(wall, 6),
            "cpu_s": round(cpu, 6),
        }
        if self.attrs:
            event["attrs"] = {k: _json_safe(v) for k, v in self.attrs.items()}
        if exc_type is not None:
            event["error"] = exc_type.__name__
        tracer.events.append(event)
        return False


# ----------------------------------------------------------------------
# Tracer


class Tracer:
    """Collects one trace session's spans and metrics (one per process)."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.cpu_epoch = time.process_time()
        self.events: list[dict[str, Any]] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.hists: dict[str, list[float]] = {}  # [count, sum, min, max]
        self._stack: list[Span] = []
        self._next_id = 1

    # -- recording -----------------------------------------------------
    def start_span(self, name: str, attrs: dict[str, Any]) -> Span:
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1].span_id if self._stack else None
        return Span(self, name, attrs, span_id, parent_id)

    def add(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        hist = self.hists.get(name)
        if hist is None:
            self.hists[name] = [1, value, value, value]
        else:
            hist[0] += 1
            hist[1] += value
            hist[2] = min(hist[2], value)
            hist[3] = max(hist[3], value)

    # -- worker merge --------------------------------------------------
    def export(self) -> dict[str, Any]:
        """This tracer's state as picklable data (worker -> parent)."""
        return {
            "events": self.events,
            "counters": self.counters,
            "gauges": self.gauges,
            "hists": self.hists,
            "next_id": self._next_id,
        }

    def merge_subtrace(self, sub: dict[str, Any]) -> None:
        """Fold a worker's exported subtrace into this trace.

        Worker span ids are offset into this tracer's id space and the
        worker's root spans are re-parented under the currently open
        span; worker ``t0`` stays relative to the worker task's start
        (concurrent tasks have no meaningful shared timeline).
        Counters and histograms merge additively, gauges last-write.
        """
        offset = self._next_id
        self._next_id += int(sub["next_id"])
        parent_id = self._stack[-1].span_id if self._stack else None
        for event in sub["events"]:
            event = dict(event)
            event["id"] += offset
            event["parent"] = (
                parent_id if event["parent"] is None else event["parent"] + offset
            )
            event["worker"] = True
            self.events.append(event)
        for name, value in sub["counters"].items():
            self.add(name, value)
        self.gauges.update(sub["gauges"])
        for name, (h_count, h_sum, h_min, h_max) in sub["hists"].items():
            hist = self.hists.get(name)
            if hist is None:
                self.hists[name] = [h_count, h_sum, h_min, h_max]
            else:
                hist[0] += h_count
                hist[1] += h_sum
                hist[2] = min(hist[2], h_min)
                hist[3] = max(hist[3], h_max)

    # -- sinks ---------------------------------------------------------
    def lines(self) -> list[str]:
        """The trace as JSONL lines (meta first, then spans, metrics)."""
        meta = {
            "type": "meta",
            "version": TRACE_SCHEMA_VERSION,
            "wall_s": round(time.perf_counter() - self.epoch, 6),
            "cpu_s": round(time.process_time() - self.cpu_epoch, 6),
            "pid": os.getpid(),
        }
        lines = [json.dumps(meta, sort_keys=True)]
        lines.extend(json.dumps(e, sort_keys=True) for e in self.events)
        for name in sorted(self.counters):
            lines.append(
                json.dumps(
                    {"type": "counter", "name": name, "value": self.counters[name]},
                    sort_keys=True,
                )
            )
        for name in sorted(self.gauges):
            lines.append(
                json.dumps(
                    {"type": "gauge", "name": name, "value": self.gauges[name]},
                    sort_keys=True,
                )
            )
        for name in sorted(self.hists):
            h_count, h_sum, h_min, h_max = self.hists[name]
            lines.append(
                json.dumps(
                    {
                        "type": "hist",
                        "name": name,
                        "count": int(h_count),
                        "sum": h_sum,
                        "min": h_min,
                        "max": h_max,
                    },
                    sort_keys=True,
                )
            )
        return lines

    def flush(self, path: str | Path) -> None:
        """Write the trace file atomically (temp + ``os.replace``)."""
        # Imported here: repro.artifacts itself imports this module.
        from repro.artifacts import atomic_write_bytes

        atomic_write_bytes(Path(path), ("\n".join(self.lines()) + "\n").encode())


# ----------------------------------------------------------------------
# Module-level switchboard

_TRACER: Tracer | None = None


def active_tracer() -> Tracer | None:
    """The installed tracer, or None when telemetry is off."""
    return _TRACER


def span(name: str, /, **attrs: object) -> Span | _NoopSpan:
    """A context manager timing one stage (no-op singleton when off)."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.start_span(name, attrs)


def count(name: str, n: float = 1) -> None:
    """Increment a counter (no-op when telemetry is off)."""
    if _TRACER is not None:
        _TRACER.add(name, n)


def gauge(name: str, value: float) -> None:
    """Set a gauge to its latest value (no-op when telemetry is off)."""
    if _TRACER is not None:
        _TRACER.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one histogram sample (no-op when telemetry is off)."""
    if _TRACER is not None:
        _TRACER.observe(name, value)


@contextmanager
def tracing(path: str | Path | None = None) -> Iterator[Tracer]:
    """Install a tracer for the block; flush to ``path`` on exit.

    Reentrant: a nested ``tracing()`` joins the active trace session
    and flushes nothing (the outermost owner writes the file).
    """
    global _TRACER
    if _TRACER is not None:
        yield _TRACER
        return
    tracer = Tracer()
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = None
        if path is not None:
            tracer.flush(path)


@contextmanager
def maybe_tracing() -> Iterator[Tracer | None]:
    """:func:`tracing` iff the resolved config enables telemetry."""
    from repro.config import get_config

    config = get_config()
    if not config.trace:
        yield _TRACER
        return
    with tracing(config.trace_path) as tracer:
        yield tracer


@contextmanager
def subtrace() -> Iterator[Tracer]:
    """A private tracer for one worker task, restoring the previous.

    Pool workers must not append into a (fork-)inherited parent tracer
    — their events would never reach the parent process.  Instead each
    task records into a fresh tracer whose :meth:`Tracer.export` rides
    back with the result for :meth:`Tracer.merge_subtrace`.
    """
    global _TRACER
    previous = _TRACER
    tracer = Tracer()
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous


# ----------------------------------------------------------------------
# Trace files: reading, validation, reporting


class TraceValidationError(ValueError):
    """A trace file violates the JSONL schema contract."""


_SPAN_FIELDS = {
    "id": int,
    "name": str,
    "t0": (int, float),
    "wall_s": (int, float),
    "cpu_s": (int, float),
}


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace into its event dicts (no validation)."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def validate_trace(path: str | Path) -> list[dict[str, Any]]:
    """Schema-check a trace file; return its events or raise.

    Enforced contract: line 1 is a ``meta`` record of a known schema
    version; every span has the typed required fields and a resolvable
    parent; metric records carry numeric values.
    """
    try:
        events = read_trace(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise TraceValidationError(f"unreadable trace {path}: {exc}") from exc
    if not events:
        raise TraceValidationError(f"trace {path} is empty")
    meta = events[0]
    if meta.get("type") != "meta":
        raise TraceValidationError("first trace line must be a meta record")
    if meta.get("version") != TRACE_SCHEMA_VERSION:
        raise TraceValidationError(
            f"unknown trace schema version {meta.get('version')!r}"
        )
    if not isinstance(meta.get("wall_s"), (int, float)):
        raise TraceValidationError("meta record is missing numeric wall_s")
    span_ids = {
        e["id"] for e in events if e.get("type") == "span" and isinstance(e.get("id"), int)
    }
    for i, event in enumerate(events[1:], start=2):
        kind = event.get("type")
        if kind == "span":
            for fld, types in _SPAN_FIELDS.items():
                if not isinstance(event.get(fld), types):
                    raise TraceValidationError(
                        f"line {i}: span field {fld!r} missing or mistyped"
                    )
            parent = event.get("parent")
            if parent is not None and parent not in span_ids:
                raise TraceValidationError(
                    f"line {i}: span parent {parent} is not a recorded span"
                )
            if "attrs" in event and not isinstance(event["attrs"], dict):
                raise TraceValidationError(f"line {i}: span attrs must be an object")
        elif kind in ("counter", "gauge"):
            if not isinstance(event.get("name"), str) or not isinstance(
                event.get("value"), (int, float)
            ):
                raise TraceValidationError(f"line {i}: malformed {kind} record")
        elif kind == "hist":
            if not isinstance(event.get("name"), str) or not all(
                isinstance(event.get(fld), (int, float))
                for fld in ("count", "sum", "min", "max")
            ):
                raise TraceValidationError(f"line {i}: malformed hist record")
        elif kind == "meta":
            raise TraceValidationError(f"line {i}: duplicate meta record")
        else:
            raise TraceValidationError(f"line {i}: unknown record type {kind!r}")
    return events


#: Attributes that distinguish otherwise same-named spans in the report.
_LABEL_ATTRS = ("stage", "name", "command", "service", "kind")


def _span_label(event: dict[str, Any]) -> str:
    attrs = event.get("attrs") or {}
    for key in _LABEL_ATTRS:
        if key in attrs:
            return f"{event['name']}[{attrs[key]}]"
    return event["name"]


class _Node:
    """One aggregated (parent path, label) cell of the report tree."""

    __slots__ = ("label", "n", "wall", "cpu", "workers", "children")

    def __init__(self, label: str):
        self.label = label
        self.n = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.workers = 0
        self.children: dict[str, _Node] = {}


def _build_tree(events: list[dict[str, Any]]) -> tuple[dict[str, Any], _Node]:
    meta = events[0]
    spans = [e for e in events if e.get("type") == "span"]
    by_id = {e["id"]: e for e in spans}
    root = _Node("<root>")
    # Path from a span up to the root determines its aggregation cell.
    cells: dict[int, _Node] = {}

    def cell_for(event: dict[str, Any]) -> _Node:
        cached = cells.get(event["id"])
        if cached is not None:
            return cached
        parent = event.get("parent")
        parent_node = root if parent is None else cell_for(by_id[parent])
        label = _span_label(event)
        node = parent_node.children.get(label)
        if node is None:
            node = parent_node.children[label] = _Node(label)
        cells[event["id"]] = node
        return node

    for event in spans:
        node = cell_for(event)
        node.n += 1
        node.wall += event["wall_s"]
        node.cpu += event["cpu_s"]
        if event.get("worker"):
            node.workers += 1
    return meta, root


def _number(value: float) -> int | float:
    return int(value) if float(value).is_integer() else value


def _self_wall(node: _Node) -> float:
    """A cell's wall time minus its children's (clamped: worker children
    overlap in wall time)."""
    return max(node.wall - sum(child.wall for child in node.children.values()), 0.0)


def _path_cells(events: list[dict[str, Any]]) -> dict[str, _Node]:
    """Every cell of the report tree, by its path of labels from the
    root (``a > b > c``)."""
    _, root = _build_tree(events)
    cells: dict[str, _Node] = {}

    def walk(node: _Node, prefix: str) -> None:
        for child in node.children.values():
            path = prefix + child.label
            cells[path] = child
            walk(child, path + " > ")

    walk(root, "")
    return cells


def render_diff(path_a: str | Path, path_b: str | Path) -> str:
    """The ``trace diff``: for every span path of either trace, calls,
    wall, CPU and self wall in A and in B with the change, the largest
    wall change first; then every counter whose value differs."""
    events_a, events_b = validate_trace(path_a), validate_trace(path_b)
    cells_a, cells_b = _path_cells(events_a), _path_cells(events_b)
    empty = _Node("")
    rows = []
    for path in cells_a.keys() | cells_b.keys():
        a, b = cells_a.get(path, empty), cells_b.get(path, empty)
        rows.append((path, a, b, b.wall - a.wall))
    rows.sort(key=lambda row: (-abs(row[3]), row[0]))
    width = max([len("span path")] + [len(row[0]) for row in rows]) + 2
    lines = [
        f"trace diff — A: {path_a}",
        f"             B: {path_b}",
        f"total wall: {events_a[0]['wall_s']:.3f}s → {events_b[0]['wall_s']:.3f}s",
        "",
        f"{'span path':<{width}}{'calls A/B':>11}{'wall A':>9}{'wall B':>9}{'change':>9}"
        f"{'cpu A':>9}{'cpu B':>9}{'self A':>9}{'self B':>9}{'change':>9}",
    ]
    for path, a, b, change in rows:
        self_a, self_b = _self_wall(a), _self_wall(b)
        lines.append(
            f"{path:<{width}}{f'{a.n}/{b.n}':>11}{a.wall:>9.3f}{b.wall:>9.3f}{change:>+9.3f}"
            f"{a.cpu:>9.3f}{b.cpu:>9.3f}{self_a:>9.3f}{self_b:>9.3f}{self_b - self_a:>+9.3f}"
        )

    def counters(events):
        return {e["name"]: e["value"] for e in events if e.get("type") == "counter"}

    counters_a, counters_b = counters(events_a), counters(events_b)
    differ = sorted(
        name
        for name in counters_a.keys() | counters_b.keys()
        if counters_a.get(name, 0) != counters_b.get(name, 0)
    )
    if differ:
        width = max(len(name) for name in differ) + 2
        lines.append(f"\n{'counter':<{width}}{'A':>14}{'B':>14}{'change':>14}")
        for name in differ:
            a, b = counters_a.get(name, 0), counters_b.get(name, 0)
            lines.append(f"{name:<{width}}{_number(a):>14}{_number(b):>14}{_number(b - a):>+14}")
    else:
        lines.append("\ncounters: no differences")
    return "\n".join(lines)


def render_report(path: str | Path, top: int = 10) -> str:
    """The human-readable ``trace report``: stage tree, cache, hot paths."""
    events = validate_trace(path)
    meta, root = _build_tree(events)
    total_wall = max(float(meta["wall_s"]), 1e-9)
    lines = [
        f"trace report — {path}",
        f"total: {meta['wall_s']:.3f}s wall, {meta.get('cpu_s', 0.0):.3f}s cpu, "
        f"{sum(1 for e in events if e.get('type') == 'span')} spans",
        "",
        f"{'stage':<58}{'calls':>6}{'wall':>10}{'cpu':>10}{'%':>6}",
    ]

    flat: list[tuple[float, _Node]] = []

    def emit(node: _Node, depth: int) -> None:
        for child in sorted(node.children.values(), key=lambda c: -c.wall):
            label = "  " * depth + child.label
            if child.workers:
                label += " (workers)"
            lines.append(
                f"{label:<58}{child.n:>6}{child.wall:>9.3f}s{child.cpu:>9.3f}s"
                f"{100 * child.wall / total_wall:>5.1f}%"
            )
            flat.append((_self_wall(child), child))
            emit(child, depth + 1)

    emit(root, 0)
    root_wall = sum(child.wall for child in root.children.values())
    lines.append(
        f"\ntop-level spans cover {100 * root_wall / total_wall:.1f}% "
        f"of measured wall time"
    )

    counters = {
        e["name"]: e["value"] for e in events if e.get("type") == "counter"
    }
    cache_stages = sorted(
        {
            name.split(".")[1]
            for name in counters
            if name.startswith("cache.") and name.count(".") == 2
        }
    )
    if cache_stages:
        lines.append("\nartifact cache (per stage):")
        for stage in cache_stages:
            hits = counters.get(f"cache.{stage}.hit", 0)
            memory = counters.get(f"cache.{stage}.memory_hit", 0)
            misses = counters.get(f"cache.{stage}.miss", 0)
            total = hits + memory + misses
            rate = 100 * (hits + memory) / total if total else 0.0
            lines.append(
                f"  {stage:<22}{int(hits):>6} disk + {int(memory):>4} mem hits, "
                f"{int(misses):>5} misses  ({rate:.1f}% hit)"
            )

    if flat:
        lines.append("\nhot paths (self wall time):")
        for self_wall, node in sorted(flat, key=lambda t: -t[0])[:top]:
            lines.append(
                f"  {node.label:<40}{self_wall:>9.3f}s"
                f"{100 * self_wall / total_wall:>6.1f}%  ({node.n} calls)"
            )

    other = {
        name: value
        for name, value in counters.items()
        if not name.startswith("cache.")
    }
    if other:
        lines.append("\ncounters:")
        for name in sorted(other):
            lines.append(f"  {name:<40}{_number(other[name]):>12}")
    hists = [e for e in events if e.get("type") == "hist"]
    if hists:
        lines.append("\nhistograms:")
        for h in hists:
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"  {h['name']:<40}{h['count']:>8}x  "
                f"mean {mean:.4f}  min {h['min']:.4f}  max {h['max']:.4f}"
            )
    return "\n".join(lines)
