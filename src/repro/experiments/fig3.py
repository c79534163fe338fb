"""Figure 3: bandwidth-trace statistics.

(a) CDF of the average bandwidth of the emulated network traces — the
paper's spans roughly 100 kbps to 100 Mbps; (b) session-duration
distribution over the buckets 0-1, 1-2, 2-5, and 5-20 minutes.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import SERVICES, format_table, get_corpus
from repro.experiments.registry import experiment

__all__ = ["run", "main", "DURATION_BUCKETS"]

#: Bucket boundaries in minutes (Figure 3b's x axis).
DURATION_BUCKETS = ((0, 1), (1, 2), (2, 5), (5, 20))

#: CDF percentiles reported for the bandwidth distribution.
_PERCENTILES = (5, 10, 25, 50, 75, 90, 95)


def run(datasets: dict[str, object] | None = None) -> dict:
    """Bandwidth CDF percentiles and duration-bucket shares."""
    if datasets is None:
        datasets = {svc: get_corpus(svc) for svc in SERVICES}
    bandwidths = np.concatenate(
        [ds.column("link_mean_bps") for ds in datasets.values()]
    )
    durations_min = np.concatenate(
        [ds.column("session_end") for ds in datasets.values()]
    ) / 60.0
    cdf = {
        p: float(np.percentile(bandwidths, p) / 1e3)  # kbps
        for p in _PERCENTILES
    }
    shares = {}
    for lo, hi in DURATION_BUCKETS:
        mask = (durations_min >= lo) & (durations_min < hi)
        shares[f"{lo}-{hi}"] = float(mask.mean())
    return {
        "bandwidth_kbps_percentiles": cdf,
        "duration_bucket_shares": shares,
        "min_bandwidth_kbps": float(bandwidths.min() / 1e3),
        "max_bandwidth_kbps": float(bandwidths.max() / 1e3),
        "n_sessions": int(bandwidths.shape[0]),
    }


@experiment(
    "fig3",
    title="Figure 3",
    paper_ref="§4.1, Fig. 3",
    description="Bandwidth-trace CDF and session-duration buckets",
    order=20,
)
def main() -> dict:
    """Run and print Figure 3's numbers."""
    result = run()
    print("Figure 3a — average bandwidth CDF (kbps)")
    print(
        format_table(
            ["percentile", "kbps"],
            [
                [f"p{p}", f"{v:,.0f}"]
                for p, v in result["bandwidth_kbps_percentiles"].items()
            ],
        )
    )
    print(
        f"range: {result['min_bandwidth_kbps']:,.0f} - "
        f"{result['max_bandwidth_kbps']:,.0f} kbps "
        "(paper: ~10^2 to ~10^5 kbps)"
    )
    print("\nFigure 3b — session duration buckets")
    print(
        format_table(
            ["bucket (min)", "share"],
            [
                [bucket, f"{share:.0%}"]
                for bucket, share in result["duration_bucket_shares"].items()
            ],
        )
    )
    return result


if __name__ == "__main__":
    main()
