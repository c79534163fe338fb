"""Sequential-vs-parallel wall time for the two hottest paths.

Measures corpus collection and forest training at ``REPRO_JOBS=1``
versus ``REPRO_BENCH_JOBS`` workers (default: all cores) and records
both times plus the speedup in ``benchmark.extra_info``.  Outputs are
asserted bit-identical across job counts — the parallel layer's core
contract — so the numbers compare like with like.

On a 4+-core machine expect >= 2x on both paths; on fewer cores the
speedup degrades toward (or below) 1x and only the identity checks
remain meaningful.
"""

import os
import time

import numpy as np

from repro.collection.harness import collect_corpus
from repro.experiments.common import default_forest
from repro.features.tls_features import extract_tls_matrix
from tests.records import record_bytes

from conftest import run_once


def _bench_jobs() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", str(os.cpu_count() or 1)))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_bench_parallel_collection(benchmark):
    """Corpus collection: one process vs a worker pool."""
    jobs = _bench_jobs()
    n_sessions = 150

    sequential, seq_s = _timed(
        lambda: collect_corpus("svc1", n_sessions, seed=77, n_jobs=1)
    )
    parallel, par_s = _timed(
        lambda: run_once(
            benchmark, collect_corpus, "svc1", n_sessions, seed=77, n_jobs=jobs
        )
    )

    identical = [record_bytes(s) for s in sequential] == [
        record_bytes(s) for s in parallel
    ]
    assert identical
    benchmark.extra_info.update(
        {
            "n_sessions": n_sessions,
            "jobs": jobs,
            "sequential_s": round(seq_s, 3),
            "parallel_s": round(par_s, 3),
            "speedup": round(seq_s / par_s, 2),
            "bit_identical": identical,
        }
    )


def test_bench_parallel_forest(benchmark, svc1_corpus):
    """Forest training (60 trees): one process vs a worker pool."""
    jobs = _bench_jobs()
    X, _ = extract_tls_matrix(svc1_corpus)
    y = svc1_corpus.labels("combined")

    def fit(n_jobs):
        forest = default_forest()
        forest.n_jobs = n_jobs
        return forest.fit(X, y)

    sequential, seq_s = _timed(lambda: fit(1))
    parallel, par_s = _timed(lambda: run_once(benchmark, fit, jobs))

    identical = bool(
        np.array_equal(parallel.predict(X), sequential.predict(X))
        and np.array_equal(
            parallel.feature_importances_, sequential.feature_importances_
        )
    )
    assert identical
    benchmark.extra_info.update(
        {
            "n_samples": int(X.shape[0]),
            "n_trees": sequential.n_estimators,
            "jobs": jobs,
            "sequential_s": round(seq_s, 3),
            "parallel_s": round(par_s, 3),
            "speedup": round(seq_s / par_s, 2),
            "bit_identical": identical,
        }
    )
