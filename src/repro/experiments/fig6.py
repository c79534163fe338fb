"""Figure 6: top-10 Random-Forest feature importances per service.

The paper finds four features in every service's top-10 — ``SDR_DL``,
``TDR_MED``, ``D2U_MED``, and ``CUM_DL_60s`` — and eight features that
appear for only one service, reflecting service-design differences.
"""

from __future__ import annotations

import numpy as np

from repro.collection.dataset import Dataset
from repro.experiments.common import (
    SERVICES,
    format_table,
    get_corpus,
    importances_for,
)
from repro.experiments.registry import Claim, experiment
from repro.features.tls_features import TLS_FEATURE_NAMES

__all__ = ["run", "main", "PAPER_COMMON_FEATURES"]

#: The four features the paper reports as common to all three services.
PAPER_COMMON_FEATURES = ("SDR_DL", "TDR_MED", "D2U_MED", "CUM_DL_60s")

#: Early cumulative-downlink and downlink-rate features.
_DOWNLINK_FEATURES = frozenset(
    {"CUM_DL_30s", "CUM_DL_60s", "CUM_DL_120s", "SDR_DL", "TDR_MED", "TDR_MAX"}
)


def _downlink_in_top(result: dict, svc: str) -> tuple:
    found = sorted(_DOWNLINK_FEATURES & set(result["per_service"][svc]["top_features"]))
    return ", ".join(found), bool(found)


CLAIMS = (
    # A handful of features is important everywhere, and some matter
    # for only one service...
    Claim("features common to every top-10 >= 2", ", ".join(PAPER_COMMON_FEATURES),
          lambda r: (", ".join(r["common_features"]), len(r["common_features"]) >= 2)),
    Claim("features in exactly one service's top-10 >= 3", "8",
          lambda r: (n := sum(map(len, r["exclusive_features"].values())), n >= 3)),
    # ...and early downlink volume/rate dominates every service's top-10.
    *(
        Claim(f"{svc} top-10 holds a downlink volume or rate feature",
              "SDR_DL, TDR_MED, CUM_DL_60s in all",
              lambda r, svc=svc: _downlink_in_top(r, svc))
        for svc in SERVICES
    ),
)


def run_service(
    dataset: Dataset,
    target: str = "combined",
    top_k: int = 10,
    method: str = "gini",
) -> dict:
    """Top-``top_k`` feature importances for one service.

    ``method`` selects Gini impurity decrease (what the paper's Random
    Forest reports) or permutation importance (a robustness
    cross-check; slower).
    """
    importances = importances_for(dataset, target=target, method=method)
    names = TLS_FEATURE_NAMES
    order = np.argsort(importances)[::-1][:top_k]
    return {
        "top_features": [names[i] for i in order],
        "top_importances": importances[order].tolist(),
        "all_importances": dict(zip(TLS_FEATURE_NAMES, importances.tolist())),
        "method": method,
    }


def run(
    datasets: dict[str, Dataset] | None = None, top_k: int = 10
) -> dict:
    """Figure 6 for every service, plus cross-service overlap."""
    if datasets is None:
        datasets = {svc: get_corpus(svc) for svc in SERVICES}
    per_service = {svc: run_service(ds, top_k=top_k) for svc, ds in datasets.items()}
    top_sets = [set(r["top_features"]) for r in per_service.values()]
    common = set.intersection(*top_sets) if top_sets else set()
    exclusive = {}
    for svc, r in per_service.items():
        others = set().union(
            *(set(o["top_features"]) for s, o in per_service.items() if s != svc)
        )
        exclusive[svc] = sorted(set(r["top_features"]) - others)
    return {
        "per_service": per_service,
        "common_features": sorted(common),
        "exclusive_features": exclusive,
    }


@experiment(
    "fig6",
    title="Figure 6",
    paper_ref="§4.3, Fig. 6",
    description="Top-10 Random-Forest feature importances per service",
    order=70,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print Figure 6."""
    result = run()
    for svc, r in result["per_service"].items():
        print(f"\nFigure 6 — {svc} top-10 feature importances")
        print(
            format_table(
                ["rank", "feature", "importance"],
                [
                    [str(i + 1), name, f"{imp:.3f}"]
                    for i, (name, imp) in enumerate(
                        zip(r["top_features"], r["top_importances"])
                    )
                ],
            )
        )
    return result
