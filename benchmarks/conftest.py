"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables or figures via the
corresponding :mod:`repro.experiments` driver and attaches the computed
rows to ``benchmark.extra_info`` so the numbers appear in the report.

Scale: benchmarks honour ``REPRO_SCALE`` like the experiment CLIs but
default to 0.25 (a quarter of the paper's corpus sizes) so the whole
suite runs in minutes; set ``REPRO_SCALE=1.0`` to regenerate everything
at paper scale.  Corpora are cached on disk across runs.
"""

import pytest

from repro.config import set_env_default

set_env_default("REPRO_SCALE", "0.25")

from repro.experiments import common, registry  # noqa: E402


@pytest.fixture(scope="session")
def experiments():
    """Registered experiment specs by name, from the declarative
    registry — the same source ``run_all`` and the CLI resolve."""
    return {spec.name: spec for spec in registry.all_experiments()}


@pytest.fixture(scope="session")
def corpora():
    """The three per-service evaluation corpora (cached)."""
    return {svc: common.get_corpus(svc) for svc in common.SERVICES}


@pytest.fixture(scope="session")
def svc1_corpus(corpora):
    """Svc1's corpus (most single-service experiments use it)."""
    return corpora["svc1"]


@pytest.fixture(scope="session")
def stream_workload():
    """The streaming-engine load: 1000 concurrent user streams.

    Every 10th stream goes idle after its first session, so eviction
    fires deterministically; the returned expectations carry the exact
    event/session/eviction counts for telemetry reconciliation.  The
    shape is fixed (not ``REPRO_SCALE``-scaled) because the benchmark's
    contract is specifically "1k+ concurrent streams".
    """
    from repro.stream.replay import synthetic_events

    return synthetic_events(
        n_streams=1000,
        sessions_per_stream=2,
        transactions_per_session=12,
        seed=0,
        short_stream_every=10,
    )


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    These are end-to-end experiment regenerations (minutes, not
    microseconds), so a single round is the right measurement.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def alternating_pairs(first, second, pairs):
    """Time ``first()`` against ``second()`` in ``pairs`` run pairs.

    The host's speed drifts by a fifth or more within seconds, so a
    wall-time comparison is measured the way ``perfbench`` measures:
    which side runs first alternates from pair to pair, and each run's
    wall time is scaled to a reference host speed by
    ``perfbench/hostspeed.py``'s sampler (so run from the repository
    root).  Returns the per-pair ``(first_s, second_s)`` reference
    times and each side's last result.
    """
    import time

    from perfbench.hostspeed import SpeedSampler

    sides = (first, second)
    spans, results = [], [None, None]
    with SpeedSampler() as speed:
        for i in range(pairs):
            pair = [None, None]
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                start = time.perf_counter()
                results[side] = sides[side]()
                pair[side] = (start, time.perf_counter())
            spans.append(pair)
        # Scaled once every run is done: a run shorter than the
        # sampling interval falls back to the whole series' speed,
        # which must hold at least one sample.
        times = [
            tuple(speed.at_reference(end - start, start, end) for start, end in pair)
            for pair in spans
        ]
    return times, tuple(results)
