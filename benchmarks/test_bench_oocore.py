"""Out-of-core benchmark: sharded collect + extract under a fixed
memory ceiling.

Collects a ``REPRO_SCALE``-sized corpus straight into a format-4 shard
directory, extracts its TLS feature matrix shard-at-a-time and its flow
matrix one shard per pool task, and builds every record once in one
sweep, watching the process's peak RSS via
:func:`resource.getrusage`.  The assertions are the out-of-core
contract:

* the RSS *growth* over the whole collect+extract+warm cycle stays
  under ``REPRO_BENCH_OOCORE_CEILING_MB`` (default 512 MB) — corpus
  size bounds disk, not memory;
* the per-shard artifact accounting reconciles exactly: cold misses ==
  n_shards, warm hits == n_shards, and the warm pass materializes zero
  shards (it touches only the manifest and the cache);
* the sharded TLS matrix and the flow matrix are each bit-identical
  for 1 and 4 workers;
* the record sweep yields one record per session, with the TLS
  counts the ``n_tls_transactions`` column reads, and reads each block
  once (``materialized == n_shards``).

Peak RSS, shard counts, and the cache counters land in ``extra_info``
(published as ``BENCH_oocore.json`` by the CI job).
"""

import os
import resource

import numpy as np

from repro import artifacts, config
from repro.collection.fleet import extract_tls_sharded
from repro.collection.harness import collect_corpus
from repro.netflow.features import extract_flow_matrix

#: Paper-scale svc1 is 2111 sessions; REPRO_SCALE scales it like the
#: experiment drivers do.
BASE_SESSIONS = 2111


def _peak_rss_mb() -> float:
    """Lifetime peak RSS of this process, in MB (ru_maxrss is KB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_sharded_collect_extract_bounded_memory(benchmark, tmp_path_factory):
    ceiling_mb = float(os.environ.get("REPRO_BENCH_OOCORE_CEILING_MB", "512"))
    scale = config.get_config().scale
    n_sessions = max(20, int(round(BASE_SESSIONS * scale)))
    shard_size = max(10, n_sessions // 16)
    root = tmp_path_factory.mktemp("oocore")

    baseline_mb = _peak_rss_mb()

    def cycle():
        with config.override(cache_dir=root / "cache"):
            store = artifacts.get_store()
            store.reset_counters()
            dataset = collect_corpus(
                "svc1", n_sessions, seed=0,
                out=root / "corpus.shards", shard_size=shard_size,
            )
            X_cold, _ = extract_tls_sharded(dataset)
            cold = store.counter_snapshot()

            # Warm pass under fresh-process conditions: memory LRU
            # dropped, shard LRU dropped — only the manifest and the
            # on-disk artifacts may be read.
            store.reset_counters()
            store.clear_memory()
            dataset.drop_caches()
            materialized_before = dataset.counters["materialized"]
            X_warm, _ = extract_tls_sharded(dataset)
            warm = store.counter_snapshot()
            warm_materialized = (
                dataset.counters["materialized"] - materialized_before
            )
        flows = []
        for jobs in (1, 4):
            with config.override(jobs=jobs):
                flows.append(extract_flow_matrix(dataset)[0])
        # The record path: one sweep builds every record, one session
        # at a time, from each block's members.
        dataset.drop_caches()
        record_tls = [record.n_tls_transactions for record in dataset]
        return dataset, X_cold, X_warm, cold, warm, warm_materialized, flows, record_tls

    dataset, X_cold, X_warm, cold, warm, warm_materialized, flows, record_tls = (
        benchmark.pedantic(cycle, rounds=1, iterations=1)
    )
    peak_mb = _peak_rss_mb()
    growth_mb = peak_mb - baseline_mb

    benchmark.extra_info["n_sessions"] = n_sessions
    benchmark.extra_info["shard_size"] = shard_size
    benchmark.extra_info["n_shards"] = dataset.n_shards
    benchmark.extra_info["baseline_rss_mb"] = round(baseline_mb, 1)
    benchmark.extra_info["peak_rss_mb"] = round(peak_mb, 1)
    benchmark.extra_info["rss_growth_mb"] = round(growth_mb, 1)
    benchmark.extra_info["ceiling_mb"] = ceiling_mb
    benchmark.extra_info["cold_counters"] = cold
    benchmark.extra_info["warm_counters"] = warm

    assert growth_mb <= ceiling_mb, (
        f"out-of-core cycle grew RSS by {growth_mb:.0f} MB "
        f"(ceiling {ceiling_mb:.0f} MB)"
    )

    # Exact per-shard accounting — see repro.collection.fleet.
    assert cold["misses"] == dataset.n_shards, cold
    assert warm["misses"] == 0, warm
    assert warm["hits"] == dataset.n_shards, warm
    assert warm_materialized == 0, "warm extract read shard payloads"
    np.testing.assert_array_equal(X_cold, X_warm)

    # Worker-count invariance on the collected directory: re-extract
    # with a different pool size against a fresh cache.
    with config.override(cache_dir=root / "cache-j4"):
        X_par, _ = extract_tls_sharded(dataset, n_jobs=4)
    np.testing.assert_array_equal(X_cold, X_par)
    flow_1, flow_4 = flows
    assert flow_1.shape[0] == n_sessions
    assert flow_1.tobytes() == flow_4.tobytes(), "flow matrix depends on the worker count"

    assert len(record_tls) == n_sessions
    assert record_tls == dataset.column("n_tls_transactions").tolist()
    assert dataset.counters["materialized"] == dataset.n_shards, dataset.counters
