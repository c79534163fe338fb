"""Benchmark: every registered experiment, checked against its paper
claims.

Each case runs one driver once, in registry (paper) order, under the
benchmark timer, and records each claim's measured value and verdict
in ``extra_info``.  It fails naming every claim that fails; a claim
"not checked" (the result lacks the data it needs) passes.  Claims
were declared for corpora at ``registry.CLAIMS_SCALE``, the suite's
default scale.
"""

import pytest
from conftest import run_once

from repro import config
from repro.experiments import registry, table4

SPECS = registry.all_experiments()


@pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
def test_claims(benchmark, spec, tmp_path, monkeypatch):
    # Some drivers write their matrices into the working directory.
    monkeypatch.chdir(tmp_path)
    result = run_once(benchmark, spec.run)
    failed = []
    for claim in spec.claims:
        measured, verdict = claim.evaluate(result)
        benchmark.extra_info[claim.name] = {"measured": measured, "verdict": verdict}
        if verdict == "fails":
            failed.append(f"{claim.name}: measured {measured}, paper {claim.paper}")
    assert not failed, f"{spec.name}: " + "; ".join(failed)


def test_table4_compute_ratio_from_empty_store(benchmark, corpora, tmp_path):
    # Table 4 times how long each feature matrix takes to obtain, so it
    # runs against an empty artifact store: in registry order the TLS
    # matrices are store hits and the ratio measures nothing.
    with config.override(cache_dir=tmp_path):
        result = run_once(benchmark, table4.run, corpora)
    for svc, r in result.items():
        benchmark.extra_info[svc] = {
            "tls_extract_seconds": round(r["tls"]["extract_seconds"], 3),
            "ml16_extract_seconds": round(r["ml16"]["extract_seconds"], 3),
        }
    # The extra accuracy costs far more feature-extraction compute
    # (60x in the paper).
    for svc, r in result.items():
        ratio = r["ml16"]["extract_seconds"] / max(r["tls"]["extract_seconds"], 1e-9)
        assert ratio > 10, f"{svc}: packet featurization suspiciously cheap"
