"""Workload-registry benchmark: RTC throughput floor + counter audit.

Two contracts of the RTC traffic model:

* **Wall-time ceiling** — collecting an RTC corpus costs at most 2x
  the HAS collection of the same session count.  An RTC session is a
  flat 2-second tick loop over the same TCP/TLS substrate as a HAS
  session's segment loop; the ceiling catches any per-tick work that
  grows beyond a few transfers and arithmetic.  The two sides run in
  alternating, host-speed-scaled pairs and the median pair is gated
  (``conftest.alternating_pairs``), so host noise cannot flip a
  single-run ratio.  Run from the repository root.

* **Exact telemetry reconciliation** — the ``rtc.*`` counters the
  call model publishes must equal, exactly, the sums of the per-trace
  ``app_stats``/stall values they summarize, and ``collection.sessions``
  must equal the corpus size.
"""

import statistics

import numpy as np

from repro import telemetry
from repro.collection.harness import collect_corpus, collect_session
from repro.config import get_config
from repro.rtc.model import RTC_SERVICES

from conftest import alternating_pairs, run_once

#: Sessions for the wall-time comparison, REPRO_SCALE-scaled like the
#: experiment drivers (conftest defaults the suite to scale 0.25).
BASE_SESSIONS = 160
#: HAS/RTC run pairs; the ceiling gates their median.
PAIRS = 5


def _n_sessions() -> int:
    return max(20, int(round(BASE_SESSIONS * get_config().scale)))


def test_rtc_collection_walltime_ceiling(benchmark):
    n = _n_sessions()

    def has():
        return collect_corpus("svc1", n, seed=51, n_jobs=1)

    def rtc():
        return collect_corpus("rtc1", n, seed=51, n_jobs=1)

    pairs, (has_ds, rtc_ds) = run_once(benchmark, alternating_pairs, has, rtc, PAIRS)
    assert len(has_ds) == len(rtc_ds) == n
    assert rtc_ds.workload == "rtc"
    # The RTC model must actually have adapted somewhere, or the
    # timing comparison proves nothing about the media loop.
    assert sum(len(r.tls_transactions) for r in rtc_ds) > n
    # 2x ceiling with a small absolute floor so sub-second HAS runs
    # don't turn scheduler jitter into a failure, gated on the median
    # over the pairs of each pair's margin.
    margin = statistics.median(r - 2.0 * h for h, r in pairs)
    has_s = statistics.median(h for h, _ in pairs)
    rtc_s = statistics.median(r for _, r in pairs)
    assert margin <= 0.5, (
        f"rtc collection took {rtc_s:.2f}s vs has {has_s:.2f}s (> 2x ceiling; "
        f"median margin {margin:.2f}s over {PAIRS} pairs: {pairs})"
    )
    benchmark.extra_info["sessions"] = n
    benchmark.extra_info["pairs"] = PAIRS
    benchmark.extra_info["has_s"] = round(has_s, 3)
    benchmark.extra_info["rtc_s"] = round(rtc_s, 3)
    benchmark.extra_info["overhead_ratio"] = round(
        statistics.median(r / h for h, r in pairs), 3
    )


def test_rtc_counters_reconcile_with_telemetry(benchmark):
    from repro.collection.harness import CollectionConfig

    profile = RTC_SERVICES["rtc1"]
    config = CollectionConfig()
    n = max(10, _n_sessions() // 4)

    def run():
        catalog = profile.make_catalog(seed=config.catalog_seed)
        freezes = 0
        frames_dropped = 0.0
        ticks = 0
        with telemetry.tracing() as tracer:
            for seed_seq in np.random.SeedSequence(27).spawn(n):
                rng = np.random.default_rng(seed_seq)
                trace = collect_session(profile, catalog.sample(rng), rng, config=config)
                freezes += len(trace.stalls)
                frames_dropped += trace.app_stats["frames_dropped"]
                ticks += len(trace.play_events)
            observed = {
                name: value
                for name, value in tracer.counters.items()
                if name.startswith("rtc.")
            }
        return freezes, frames_dropped, ticks, observed

    freezes, frames_dropped, ticks, observed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # Counters that drift from the traces they summarize are worse
    # than no counters: freeze and dropped-frame totals must match
    # exactly (sums of the same values in the same order).
    assert observed.get("rtc.freezes", 0) == freezes
    assert observed.get("rtc.frames_dropped", 0) == frames_dropped
    # Every sent tick produced at most one (possibly end-clipped)
    # play event.
    assert observed.get("rtc.ticks", 0) >= ticks > 0
    benchmark.extra_info["sessions"] = n
    benchmark.extra_info["ticks"] = int(observed.get("rtc.ticks", 0))
    benchmark.extra_info["freezes"] = freezes
    benchmark.extra_info["frames_dropped"] = round(frames_dropped, 1)


def test_collection_sessions_counter_exact(benchmark):
    n = max(10, _n_sessions() // 4)

    def run():
        with telemetry.tracing() as tracer:
            dataset = collect_corpus("rtc1", n, seed=61, n_jobs=1)
            return len(dataset), tracer.counters.get("collection.sessions", 0)

    collected, counted = benchmark.pedantic(run, rounds=1, iterations=1)
    assert collected == counted == n
    benchmark.extra_info["sessions"] = n
