"""Telemetry overhead budget: free when off, <= 5% when on.

Two claims from DESIGN.md §5f are held to numbers here:

* **Disabled** (the default): ``span()`` returns a module-level no-op
  singleton and the metric functions are one ``is None`` test, so an
  instrumented call site costs on the order of a dict-free function
  call — sub-microsecond, measured per call.
* **Enabled** (``REPRO_TRACE=1``): spans live at stage boundaries, not
  inner loops, so tracing a representative pipeline (collect ->
  features -> CV) costs at most 5% wall time over the untraced run.

The host's speed drifts by a fifth or more within seconds, so the
overhead is measured the way ``perfbench`` measures: untraced and
traced runs alternate in pairs (which one goes first alternates too),
each run's wall time is scaled to a reference host speed by
``perfbench/hostspeed.py``'s sampler, and the overhead is the median
of the pairs' traced/untraced ratios.  Run from the repository root.

Both runs assert bit-identical feature matrices — telemetry must
never change results.
"""

import statistics
import time

import numpy as np

from perfbench.hostspeed import SpeedSampler
from repro import telemetry
from repro.collection.harness import collect_corpus
from repro.features.tls_features import extract_tls_matrix
from repro.ml.model_selection import cross_validate

from conftest import run_once

#: Pipeline sized so each timed run takes seconds (stable minima).
N_SESSIONS = 120
#: Acceptance budget for REPRO_TRACE=1 (DESIGN.md §5f).
MAX_OVERHEAD = 0.05
#: Untraced/traced run pairs; the overhead is their median ratio.
PAIRS = 7


def _noop_span_cost(iterations: int = 200_000) -> float:
    """Seconds per disabled ``span()`` + ``count()`` call pair."""
    assert telemetry.active_tracer() is None
    start = time.perf_counter()
    for _ in range(iterations):
        with telemetry.span("stage", n=1):
            telemetry.count("c")
    return (time.perf_counter() - start) / iterations


def test_bench_noop_span_cost(benchmark):
    cost = run_once(benchmark, _noop_span_cost)
    benchmark.extra_info["ns_per_disabled_span"] = round(cost * 1e9, 1)
    # Generous ceiling (a context-manager call is ~100-300ns): anything
    # near microseconds means the no-op path grew real work.
    assert cost < 2e-6, f"disabled span costs {cost * 1e9:.0f}ns"


def _pipeline() -> tuple[np.ndarray, float]:
    dataset = collect_corpus("svc1", N_SESSIONS, seed=13, n_jobs=1)
    X, _ = extract_tls_matrix(dataset)
    from repro.experiments.common import default_forest

    cross_validate(default_forest(), X, dataset.labels("combined"), n_splits=3, n_jobs=1)
    return X


def test_bench_enabled_overhead(benchmark, tmp_path_factory):
    trace_path = tmp_path_factory.mktemp("telemetry") / "pipeline.jsonl"

    def traced() -> np.ndarray:
        with telemetry.tracing(trace_path):
            return _pipeline()

    def measure() -> dict:
        ratios, walls, matrices = [], {False: [], True: []}, {}
        with SpeedSampler() as speed:
            for i in range(PAIRS):
                pair = {}
                for on in (False, True) if i % 2 == 0 else (True, False):
                    start = time.perf_counter()
                    matrices[on] = (traced if on else _pipeline)()
                    end = time.perf_counter()
                    pair[on] = speed.at_reference(end - start, start, end)
                    walls[on].append(pair[on])
                ratios.append(pair[True] / pair[False])
                assert matrices[True].tobytes() == matrices[False].tobytes(), (
                    "tracing changed results"
                )
        return {
            "off_s": statistics.median(walls[False]),
            "on_s": statistics.median(walls[True]),
            "overhead": statistics.median(ratios) - 1.0,
        }

    result = run_once(benchmark, measure)
    benchmark.extra_info.update(
        {k: round(v, 4) for k, v in result.items()}
    )
    spans = sum(
        1
        for e in telemetry.validate_trace(trace_path)
        if e.get("type") == "span"
    )
    benchmark.extra_info["spans"] = spans
    assert spans > 0
    assert result["overhead"] <= MAX_OVERHEAD, (
        f"REPRO_TRACE=1 overhead {result['overhead']:.1%} "
        f"(budget {MAX_OVERHEAD:.0%}): {result}"
    )
