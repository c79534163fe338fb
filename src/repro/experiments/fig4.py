"""Figure 4: ground-truth QoE distributions across services.

Three stacked-bar charts: per-service shares of (a) re-buffering ratio
categories, (b) video-quality categories, (c) combined QoE categories.
The paper's headline observation — under the same network conditions
Svc1 degrades *quality* while Svc2 (and to a lesser extent Svc3)
*re-buffers* — must be visible in these shares.
"""

from __future__ import annotations

from repro.experiments.common import SERVICES, format_table, get_corpus
from repro.experiments.registry import Claim, experiment
from repro.qoe.metrics import COMBINED_NAMES, QUALITY_NAMES, REBUFFERING_NAMES

__all__ = ["run", "main"]

_TARGET_NAMES = {
    "rebuffering": REBUFFERING_NAMES,
    "quality": QUALITY_NAMES,
    "combined": COMBINED_NAMES,
}


def _worst_shares(result: dict, target: str) -> list[float]:
    """Each service's share of the worst category (stored first)."""
    return [result[target][svc][0] for svc in SERVICES]


# Svc1's large buffer trades quality for stall avoidance; Svc2 stalls.
CLAIMS = (
    Claim("high re-buffering share of svc1/svc2/svc3: svc1's smallest", "svc1 smallest",
          lambda r: (s := _worst_shares(r, "rebuffering"), s[0] == min(s))),
    Claim("high re-buffering share of svc1/svc2/svc3: svc2's largest", "svc2 largest",
          lambda r: (s := _worst_shares(r, "rebuffering"), s[1] == max(s))),
    Claim("low-quality share of svc1/svc2/svc3: svc1's >= svc2's", "svc1 largest",
          lambda r: (s := _worst_shares(r, "quality"), s[0] >= s[1])),
)


def run(datasets: dict[str, object] | None = None) -> dict:
    """Per-service category shares for all three QoE metrics."""
    if datasets is None:
        datasets = {svc: get_corpus(svc) for svc in SERVICES}
    result: dict = {}
    for target in ("rebuffering", "quality", "combined"):
        result[target] = {
            svc: datasets[svc].label_distribution(target).tolist()
            for svc in datasets
        }
    return result


@experiment(
    "fig4",
    title="Figure 4",
    paper_ref="§4.1, Fig. 4",
    description="Ground-truth QoE category distributions per service",
    order=30,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print Figure 4's numbers."""
    result = run()
    for target, names in _TARGET_NAMES.items():
        print(f"\nFigure 4 — {target} distribution (category shares)")
        rows = []
        for svc, dist in result[target].items():
            rows.append(
                [svc] + [f"{share:.0%}" for share in dist]
            )
        # Categories are stored worst-first (index 0 = worst).
        print(format_table(["service", *names], rows))
    return result
