"""Cold-vs-warm smoke test for the artifact store (CI job).

Gated behind ``REPRO_SMOKE=1`` because it runs the entire experiment
suite twice (at whatever tiny ``REPRO_SCALE`` the caller sets).  The
assertion is the store's whole contract: after one cold ``run_all``,
a warm one performs **zero** corpus collections and **zero** feature
re-extractions — every artifact stage serves from disk.

The warm run records a telemetry trace; when CI sets ``REPRO_TRACE``
to a path, the trace is flushed there (and uploaded as a build
artifact) after being schema-validated here, with the per-stage cache
counters cross-checked against the store's own accounting.
"""

import contextlib
import io

import pytest

from repro import config, telemetry

pytestmark = pytest.mark.skipif(
    not config.get_config().smoke,
    reason="slow cold/warm smoke; set REPRO_SMOKE=1 to run",
)


def test_warm_run_all_recomputes_nothing(tmp_path):
    from repro.artifacts import get_store
    from repro.experiments import run_all

    base = config.get_config()
    trace_path = base.trace_path or tmp_path / "warm-run.jsonl"
    with config.override(
        cache_dir=tmp_path / "cache",
        scale=base.scale if base.sources["scale"] == "env" else 0.03,
    ):
        store = get_store()
        store.reset_counters()
        with contextlib.redirect_stdout(io.StringIO()):
            run_all.main()
        cold = store.counter_snapshot()
        assert cold["misses"] > 0

        # Warm run in fresh-process conditions: memory LRU dropped, so
        # every stage must be served by a disk hit, not a recompute.
        store.reset_counters()
        store.clear_memory()
        with contextlib.redirect_stdout(io.StringIO()):
            run_all.main(["--trace", str(trace_path)])
        warm = store.counter_snapshot()

    assert warm["misses"] == 0, f"warm run recomputed artifacts: {warm}"
    assert warm["stages"]["corpus"]["misses"] == 0
    assert warm["stages"]["tls-features-shard"]["misses"] == 0
    assert warm["hits"] > 0

    # The trace is CI's build artifact: schema-valid, and its cache
    # counters must tell the same story as the store.
    events = telemetry.validate_trace(trace_path)
    counters = {
        e["name"]: e["value"] for e in events if e.get("type") == "counter"
    }
    assert not any(
        name.endswith(".miss") and value > 0
        for name, value in counters.items()
        if name.startswith("cache.")
    ), counters
    traced_hits = sum(
        value
        for name, value in counters.items()
        if name.startswith("cache.") and not name.endswith(".miss")
    )
    assert traced_hits == warm["hits"] + warm["memory_hits"]
