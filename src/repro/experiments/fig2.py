"""Figure 2: TLS transactions vs the HTTP transactions inside them.

The paper shows the first 5 seconds of a Svc1 session — a handful of
TLS transactions each containing several HTTP transactions — and
reports an average of 12.1 HTTP transactions per TLS transaction over
the Svc1 corpus.
"""

from __future__ import annotations

import numpy as np

from repro.collection.dataset import Dataset
from repro.experiments.common import format_table, get_corpus
from repro.experiments.registry import Claim, experiment

__all__ = ["run", "main"]

#: Paper-reported average HTTP transactions per TLS transaction (Svc1).
PAPER_HTTP_PER_TLS = 12.1

CLAIMS = (
    Claim("HTTP transactions per TLS transaction > 2", f"{PAPER_HTTP_PER_TLS}",
          lambda r: (r["mean_http_per_tls"], r["mean_http_per_tls"] > 2.0)),
    # The sample session's first seconds show the Figure-2 picture:
    # several concurrent TLS transactions with HTTP inside them.
    Claim("sample's first 5 s: TLS transactions >= 2", "several",
          lambda r: (len(r["sample_tls_intervals"]), len(r["sample_tls_intervals"]) >= 2)),
    Claim("sample's first 5 s: HTTP transactions > TLS transactions", "several per TLS",
          lambda r: ((len(r["sample_http_starts"]), len(r["sample_tls_intervals"])),
                     len(r["sample_http_starts"]) > len(r["sample_tls_intervals"]))),
)


def run(dataset: Dataset | None = None, window_s: float = 5.0) -> dict:
    """Compute Figure 2's data.

    Returns the per-corpus HTTP/TLS ratio and, for a sample session,
    the transaction intervals within the first ``window_s`` seconds
    (the series the paper plots).
    """
    dataset = dataset if dataset is not None else get_corpus("svc1")
    n_tls = dataset.column("n_tls_transactions")
    n_http = dataset.column("n_http_transactions")
    ratios = n_http / np.maximum(n_tls, 1)
    # Sample session: the paper's plot shows the startup burst, so pick
    # the session with the most TLS transactions opening inside the
    # window (ties broken toward typical HTTP/TLS ratios by order).
    table = dataset.tls_table()
    session = table.session_ids
    first_start = np.minimum.reduceat(table.start, table.offsets[:-1])
    in_burst = table.start - first_start[session] < window_s
    burst_sizes = np.bincount(session[in_burst], minlength=table.n_sessions)
    sample = dataset[int(np.argmax(burst_sizes))]
    t0 = min(t.start for t in sample.tls_transactions)
    tls_intervals = [
        (t.start - t0, min(t.end - t0, window_s))
        for t in sample.tls_transactions
        if t.start - t0 < window_s
    ]
    http_starts = [
        float(s - t0)
        for s in sample.http["start"]
        if s - t0 < window_s
    ]
    return {
        "mean_http_per_tls": float(ratios.mean()),
        "mean_tls_per_session": float(np.mean(n_tls)),
        "mean_http_per_session": float(np.mean(n_http)),
        "sample_tls_intervals": tls_intervals,
        "sample_http_starts": http_starts,
        "paper_http_per_tls": PAPER_HTTP_PER_TLS,
    }


@experiment(
    "fig2",
    title="Figure 2",
    paper_ref="§3.1, Fig. 2",
    description="TLS transactions vs the HTTP transactions inside them",
    order=10,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print Figure 2's numbers."""
    result = run()
    print("Figure 2 — TLS vs HTTP transactions (Svc1)")
    print(
        format_table(
            ["metric", "measured", "paper"],
            [
                [
                    "HTTP per TLS transaction",
                    f"{result['mean_http_per_tls']:.1f}",
                    f"{PAPER_HTTP_PER_TLS}",
                ],
                [
                    "TLS transactions / session",
                    f"{result['mean_tls_per_session']:.1f}",
                    "19.5",
                ],
            ],
        )
    )
    print(
        f"\nSample session, first 5 s: {len(result['sample_tls_intervals'])} TLS "
        f"transactions covering {len(result['sample_http_starts'])} HTTP transactions"
    )
    for i, (start, end) in enumerate(result["sample_tls_intervals"], 1):
        inside = sum(1 for h in result["sample_http_starts"] if start <= h <= end)
        print(
            f"  TLS #{i}: [{start:4.1f}s, {end:4.1f}s]  "
            f"{inside} HTTP transactions overlap"
        )
    return result
