"""Scenario-engine benchmark: impairment overhead + counter audit.

Two contracts of the composable impairment pipeline:

* **Wall-time ceiling** — collecting a corpus over the ``hostile``
  scenario (policer -> reorderer -> queue, the deepest built-in
  pipeline) costs at most 2x the identity collection of the same
  sessions.  Stages are analytic per-transfer transforms, so the
  overhead is a few arithmetic operations per request; the ceiling
  catches anyone sneaking an event loop into a stage.  The two sides
  run in alternating, host-speed-scaled pairs and the median pair is
  gated (``conftest.alternating_pairs``), so host noise cannot flip a
  single-run ratio.  Run from the repository root.

* **Exact telemetry reconciliation** — the per-stage drop/reorder
  counters the HAS player publishes (``path.<stage>.<counter>``)
  must equal, exactly, the sum of the per-session ``path_stats`` the
  session traces carry.  Counters that drift from the traces they
  summarize are worse than no counters.

Timings and per-stage counter totals land in ``extra_info``.
"""

import statistics

import numpy as np

from repro import telemetry
from repro.collection.harness import (
    CollectionConfig,
    collect_corpus,
    collect_session,
)
from repro.config import get_config
from repro.has.services import get_service

from conftest import alternating_pairs, run_once

#: Sessions for the wall-time comparison, REPRO_SCALE-scaled like the
#: experiment drivers (conftest defaults the suite to scale 0.25).
BASE_SESSIONS = 160
#: Identity/hostile run pairs; the ceiling gates their median.
PAIRS = 5


def _n_sessions() -> int:
    return max(20, int(round(BASE_SESSIONS * get_config().scale)))


def test_impaired_collection_walltime_ceiling(benchmark):
    n = _n_sessions()

    def identity():
        return collect_corpus("svc1", n, seed=41, n_jobs=1)

    def hostile():
        return collect_corpus(
            "svc1", n, seed=41, n_jobs=1,
            config=CollectionConfig(scenario="hostile"),
        )

    pairs, (identity_ds, hostile_ds) = run_once(
        benchmark, alternating_pairs, identity, hostile, PAIRS
    )
    assert len(identity_ds) == len(hostile_ds) == n
    # The pipeline must actually have been exercised, or the timing
    # comparison proves nothing.
    assert hostile_ds.labels("policed").sum() > 0
    # 2x ceiling with a small absolute floor so sub-second identity
    # runs don't turn scheduler jitter into a failure, gated on the
    # median over the pairs of each pair's margin.
    margin = statistics.median(h - 2.0 * i for i, h in pairs)
    identity_s = statistics.median(i for i, _ in pairs)
    hostile_s = statistics.median(h for _, h in pairs)
    assert margin <= 0.5, (
        f"hostile collection took {hostile_s:.2f}s vs identity "
        f"{identity_s:.2f}s (> 2x ceiling; median margin {margin:.2f}s "
        f"over {PAIRS} pairs: {pairs})"
    )
    benchmark.extra_info["sessions"] = n
    benchmark.extra_info["pairs"] = PAIRS
    benchmark.extra_info["identity_s"] = round(identity_s, 3)
    benchmark.extra_info["hostile_s"] = round(hostile_s, 3)
    benchmark.extra_info["overhead_ratio"] = round(
        statistics.median(h / i for i, h in pairs), 3
    )


def test_stage_counters_reconcile_with_telemetry(benchmark):
    profile = get_service("svc1")
    config = CollectionConfig(scenario="hostile")
    n = max(10, _n_sessions() // 4)

    def run():
        catalog = profile.make_catalog(seed=config.catalog_seed)
        totals: dict[str, float] = {}
        policed_sessions = 0
        with telemetry.tracing() as tracer:
            for seed_seq in np.random.SeedSequence(17).spawn(n):
                rng = np.random.default_rng(seed_seq)
                trace = collect_session(
                    profile, catalog.sample(rng), rng, config=config
                )
                for stage, counters in trace.path_stats.items():
                    for key, value in counters.items():
                        name = f"path.{stage}.{key}"
                        totals[name] = totals.get(name, 0) + value
                policed_sessions += int(trace.policed)
            observed = {
                name: value
                for name, value in tracer.counters.items()
                if name.startswith("path.")
            }
        return totals, observed, policed_sessions

    totals, observed, policed_sessions = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # Every counter the player published must equal the trace-side sum —
    # exactly, not approximately: both are sums of the same floats in
    # the same order.
    assert observed == totals
    # The hostile pipeline's headline counters all fired.
    assert totals.get("path.policer.dropped_packets", 0) > 0
    assert totals.get("path.reorder.reordered_packets", 0) > 0
    assert totals.get("path.queue.queue_delay_s", 0) > 0
    assert policed_sessions > 0
    benchmark.extra_info["sessions"] = n
    benchmark.extra_info["policed_sessions"] = policed_sessions
    benchmark.extra_info["stage_counters"] = {
        name: round(value, 3) for name, value in sorted(totals.items())
    }
