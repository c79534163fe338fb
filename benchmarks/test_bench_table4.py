"""Benchmark: regenerate Table 4 (ML16 packet baseline vs TLS)."""

from conftest import run_once

from repro import config
from repro.experiments import table4


def test_bench_table4(benchmark, corpora, tmp_path):
    # Table 4 times how long each feature matrix takes to obtain, so it
    # runs against an empty artifact store: a store warmed by an earlier
    # benchmark (netflow's ML16 matrix) would time a cache hit.
    with config.override(cache_dir=tmp_path):
        result = run_once(benchmark, table4.run, corpora)
    for svc, r in result.items():
        benchmark.extra_info[svc] = {
            "tls": {k: round(v, 3) for k, v in r["tls"].items()},
            "ml16": {k: round(v, 3) for k, v in r["ml16"].items()},
        }
    # Paper shape 1: packet traces never lose meaningfully to TLS
    # transactions, and win on low-QoE recall for most services (the
    # paper reports +5-7% accuracy / +4-9% recall; our TLS model sits
    # closer to the simulator's noise ceiling, compressing the gap).
    for svc, r in result.items():
        assert r["gain"]["accuracy"] > -0.02, f"{svc}: ML16 lost to TLS"
        assert r["gain"]["recall"] > -0.02, f"{svc}: ML16 lost recall to TLS"
    assert sum(1 for r in result.values() if r["gain"]["recall"] > 0) >= 2
    # Paper shape 2: the extra accuracy costs far more feature-
    # extraction compute (60x in the paper).
    for svc, r in result.items():
        ratio = r["ml16"]["extract_seconds"] / max(r["tls"]["extract_seconds"], 1e-9)
        assert ratio > 10, f"{svc}: packet featurization suspiciously cheap"
