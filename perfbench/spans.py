"""Benchmark-side spans around the calls the benchmark makes into each layer.

A span records its name, start, end and parent; spans live in memory
and are written out as JSONL once the run ends.  Tracing is switched on
per pass, so untraced passes pay only an ``if`` per span.  The program's
own ``repro.telemetry`` stays off: these spans time each layer from
outside, through its public entry point.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class SpanRecorder:
    """In-memory span tree for one benchmark run."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            # Spans of one pass share the id of that pass's root span.
            "root": self.spans[parent]["root"] if parent is not None else len(self.spans),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self, roots: set[str]) -> dict[str, float]:
        """Total self time per span name, over trees whose root is named
        in ``roots``.  Self time is a span's duration minus its children's
        (children run one after another, so their intervals never overlap)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s, inner in zip(self.spans, child_time):
            if self.spans[s["root"]]["name"] in roots:
                totals[s["name"]] = totals.get(s["name"], 0.0) + (
                    s["end"] - s["start"] - inner
                )
        return totals

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")
