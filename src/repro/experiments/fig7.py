"""Figure 7: feature distributions for matched sessions.

The paper's empirical argument for transaction-level and temporal
features: among sessions with *similar session-level features* (same
duration band, same downlink session-data-rate band), the distribution
of ``CUM_DL_60s`` (Svc1) and ``D2U_MED`` (Svc2) still separates low
from high combined QoE — so the finer features carry information the
session-level aggregates miss.

The paper fixes the bands at duration 2-3 min with SDR_DL 1400-1600
kbps (Svc1) / 1000-1200 kbps (Svc2) — deliberately a *contested* rate
region where low, medium, and high QoE all occur.  Our simulated rate
scale differs from the authors' testbed, so the band is chosen
adaptively around the 30th percentile of SDR_DL among duration-matched
sessions (width ±20%), which lands in the equivalent contested region;
the band actually used is reported.
"""

from __future__ import annotations

import numpy as np

from repro.collection.dataset import Dataset
from repro.experiments.common import features_for, format_table, get_corpus
from repro.experiments.registry import Claim, experiment

__all__ = ["run", "run_panel", "main"]

_QUARTILES = (25, 50, 75)


def _low_downloads_less(result: dict) -> tuple:
    """Svc1's low- vs high-QoE median ``CUM_DL_60s``; not checked with
    fewer than 3 matched sessions in either class."""
    low, high = (result["svc1"]["per_class"][c] for c in ("low", "high"))
    medians = (low["quartiles"][1], high["quartiles"][1])
    if low["n"] < 3 or high["n"] < 3:
        return medians, None
    return medians, medians[0] < medians[1]


CLAIMS = (
    # Among sessions with matched session-level features, low-QoE Svc1
    # sessions still downloaded less in their first minute.
    Claim("svc1 matched sessions: low-QoE median CUM_DL_60s < high-QoE", "21 MB < 24 MB",
          _low_downloads_less),
    Claim("svc1 matched sessions >= 5", "a band with every QoE class",
          lambda r: (r["svc1"]["n_matched"], r["svc1"]["n_matched"] >= 5)),
)


def run_panel(
    dataset: Dataset,
    feature: str,
    duration_band_s: tuple[float, float] = (120.0, 180.0),
    rate_band_width: float = 0.20,
    rate_percentile: float = 30.0,
) -> dict:
    """One panel: per-QoE-class quartiles of ``feature`` for matched
    sessions."""
    X, names = features_for(dataset)
    if feature not in names:
        raise ValueError(f"unknown feature {feature!r}")
    col = names.index(feature)
    ses_dur = X[:, names.index("SES_DUR")]
    sdr_dl = X[:, names.index("SDR_DL")]
    y = dataset.labels("combined")

    in_duration = (ses_dur >= duration_band_s[0]) & (ses_dur < duration_band_s[1])
    if not in_duration.any():
        raise ValueError("no sessions in the duration band")
    center = float(np.percentile(sdr_dl[in_duration], rate_percentile))
    lo, hi = center * (1 - rate_band_width), center * (1 + rate_band_width)
    matched = in_duration & (sdr_dl >= lo) & (sdr_dl < hi)

    per_class = {}
    for cls, name in enumerate(("low", "medium", "high")):
        values = X[matched & (y == cls), col]
        per_class[name] = {
            "n": int(values.shape[0]),
            "quartiles": [float(np.percentile(values, q)) for q in _QUARTILES]
            if values.size
            else [float("nan")] * 3,
        }
    return {
        "feature": feature,
        "duration_band_s": duration_band_s,
        "sdr_dl_band_bytes_per_s": (lo, hi),
        "n_matched": int(matched.sum()),
        "per_class": per_class,
    }


def run(datasets: dict[str, Dataset] | None = None) -> dict:
    """Both panels: Svc1 CUM_DL_60s and Svc2 D2U_MED."""
    if datasets is None:
        datasets = {
            "svc1": get_corpus("svc1"),
            "svc2": get_corpus("svc2"),
        }
    return {
        "svc1": run_panel(datasets["svc1"], "CUM_DL_60s"),
        "svc2": run_panel(datasets["svc2"], "D2U_MED"),
    }


@experiment(
    "fig7",
    title="Figure 7",
    paper_ref="§4.3, Fig. 7",
    description="Feature distributions among session-level-matched sessions",
    order=80,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print Figure 7."""
    result = run()
    for svc, panel in result.items():
        lo, hi = panel["sdr_dl_band_bytes_per_s"]
        print(
            f"\nFigure 7 — {svc}: {panel['feature']} for sessions with "
            f"duration {panel['duration_band_s'][0] / 60:.0f}-"
            f"{panel['duration_band_s'][1] / 60:.0f} min and SDR_DL in "
            f"[{lo * 8 / 1e3:,.0f}, {hi * 8 / 1e3:,.0f}] kbps "
            f"({panel['n_matched']} sessions)"
        )
        rows = []
        for cls, stats in panel["per_class"].items():
            q25, q50, q75 = stats["quartiles"]
            rows.append(
                [cls, str(stats["n"]), f"{q25:,.0f}", f"{q50:,.0f}", f"{q75:,.0f}"]
            )
        print(format_table(["QoE class", "n", "p25", "p50", "p75"], rows))
    return result
