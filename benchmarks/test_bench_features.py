"""Corpus-scale feature extraction: per-session loop vs columnar path.

The columnar data plane replaces a per-session ``extract_tls_features``
loop (one ``np.vstack`` of S small vectors) with segment reductions
over one :class:`~repro.tlsproxy.table.TransactionTable`, and the
per-connection NetFlow exporter with one array pass per block of
sessions.  This benchmark measures each pair on the same corpus,
asserts the outputs are bit-identical (the data plane's core
contract) and the TLS columnar path is at least 3x faster, and reports
sessions/sec for each in ``benchmark.extra_info``.

Run it from the repository root with ``python -m pytest``: the flow
reference is imported from ``tests/flow_oracle.py``.
"""

import time

import numpy as np

from repro.features.tls_features import extract_tls_features, extract_tls_matrix
from repro.netflow.features import extract_flow_matrix
from tests.flow_oracle import reference_flow_matrix

from conftest import run_once


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _loop_matrix(dataset):
    return np.vstack(
        [extract_tls_features(s.tls_transactions) for s in dataset]
    )


def test_bench_tls_extraction(benchmark, svc1_corpus):
    """TLS feature matrix: reference loop vs segment reductions."""
    n = len(svc1_corpus)
    # Table construction is part of the columnar path's cost; time it
    # separately from the reductions (the lazy corpus builds a fresh
    # table on every call).
    table, build_s = _timed(svc1_corpus.tls_table)

    X_loop, loop_s = _timed(lambda: _loop_matrix(svc1_corpus))
    (X_fast, _), fast_s = _timed(
        lambda: run_once(benchmark, extract_tls_matrix, table)
    )

    identical = bool(np.array_equal(X_fast, X_loop))
    assert identical
    speedup = loop_s / fast_s
    assert speedup >= 3.0, (
        f"columnar path only {speedup:.1f}x faster than the loop "
        f"({loop_s:.3f}s vs {fast_s:.3f}s over {n} sessions)"
    )
    benchmark.extra_info.update(
        {
            "n_sessions": n,
            "n_transactions": table.n_rows,
            "table_build_s": round(build_s, 4),
            "loop_s": round(loop_s, 4),
            "columnar_s": round(fast_s, 4),
            "loop_sessions_per_sec": round(n / loop_s, 1),
            "columnar_sessions_per_sec": round(n / fast_s, 1),
            "speedup": round(speedup, 1),
            "bit_identical": identical,
        }
    )


def test_bench_flow_extraction(benchmark, svc1_corpus):
    """Flow feature matrix: the per-connection reference vs columnar.

    The reference (``tests/flow_oracle.py``) exports each session's
    connections one at a time with a Python timeout walk, then
    featurizes each session alone; the columnar path exports the whole
    corpus in one array pass and reduces it with the TLS kernel.  The
    matrix must be bit-identical.  The speedup is reported, not gated:
    the benchmark's eval-has workload (``perfbench/``) measures the
    flow stage's cost in the pipeline.
    """
    n = len(svc1_corpus)
    X_loop, loop_s = _timed(lambda: reference_flow_matrix(svc1_corpus))
    (X_fast, _), fast_s = _timed(
        lambda: run_once(benchmark, extract_flow_matrix, svc1_corpus)
    )

    identical = bool(np.array_equal(X_fast, X_loop))
    assert identical
    benchmark.extra_info.update(
        {
            "n_sessions": n,
            "loop_s": round(loop_s, 4),
            "columnar_s": round(fast_s, 4),
            "loop_sessions_per_sec": round(n / loop_s, 1),
            "columnar_sessions_per_sec": round(n / fast_s, 1),
            "speedup": round(loop_s / fast_s, 2),
            "bit_identical": identical,
        }
    )
