"""Design-choice ablations beyond the paper's tables.

Two knobs the paper identifies but does not tabulate:

* **Temporal-interval grid** (§3): "we consider these intervals as one
  of the hyperparameters of our model".  Sweeps coarse/paper/fine/
  early-heavy grids.
* **Forest size**: how many trees the Random Forest needs before the
  accuracy plateau.
"""

from __future__ import annotations

from repro.collection.dataset import Dataset
from repro.experiments.common import (
    cv_report_for,
    default_forest_config,
    features_for,
    format_percent,
    format_table,
    get_corpus,
)
from repro.experiments.registry import Claim, experiment

__all__ = ["INTERVAL_GRIDS", "interval_ablation", "forest_size_ablation", "main"]

#: Candidate temporal-interval grids (seconds).
INTERVAL_GRIDS = {
    "coarse": (300, 600, 1200),
    "uniform": (150, 300, 450, 600, 750, 900, 1050, 1200),
    "paper": (30, 60, 120, 240, 480, 720, 960, 1200),
    "early-heavy": (10, 20, 30, 45, 60, 90, 120, 1200),
}


def _no_worse(by_key: dict, a, b, slack: float) -> tuple:
    accuracies = (by_key[a]["accuracy"], by_key[b]["accuracy"])
    return accuracies, accuracies[0] >= accuracies[1] - slack


CLAIMS = (
    # Fine intervals near session start carry the buffer-empty signal,
    # and more trees must not meaningfully hurt.
    Claim("paper interval grid accuracy >= coarse grid's - 0.03", "a hyperparameter (§3)",
          lambda r: _no_worse(r["intervals"], "paper", "coarse", 0.03)),
    Claim("60-tree forest accuracy >= 5-tree forest's - 0.01", "-",
          lambda r: _no_worse(r["forest_size"], 60, 5, 0.01)),
)


def interval_ablation(dataset: Dataset | None = None, target: str = "combined") -> dict:
    """Accuracy/recall per temporal-interval grid."""
    dataset = dataset if dataset is not None else get_corpus("svc1")
    y = dataset.labels(target)
    result = {}
    for name, intervals in INTERVAL_GRIDS.items():
        X, _ = features_for(dataset, intervals=intervals)
        report = cv_report_for(
            dataset,
            X,
            y,
            {"features": "tls", "intervals": intervals, "target": target},
        )
        result[name] = {
            "intervals": intervals,
            "accuracy": report.accuracy,
            "recall": report.recall,
        }
    return result


def forest_size_ablation(
    dataset: Dataset | None = None,
    sizes: tuple[int, ...] = (5, 15, 30, 60, 120),
    target: str = "combined",
) -> dict:
    """Accuracy as a function of the number of trees."""
    dataset = dataset if dataset is not None else get_corpus("svc1")
    X, _ = features_for(dataset)
    y = dataset.labels(target)
    result = {}
    for n in sizes:
        report = cv_report_for(
            dataset,
            X,
            y,
            {"features": "tls", "target": target},
            model_config=default_forest_config(n_estimators=n),
        )
        result[n] = {"accuracy": report.accuracy, "recall": report.recall}
    return result


@experiment(
    "ablations",
    title="Ablations",
    paper_ref="§3 (hyperparameters)",
    description="Temporal-interval grid and forest-size sweeps",
    order=130,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print both ablations."""
    intervals = interval_ablation()
    print("Ablation — temporal-interval grid (Svc1, combined QoE)")
    print(
        format_table(
            ["grid", "accuracy", "recall"],
            [
                [name, format_percent(r["accuracy"]), format_percent(r["recall"])]
                for name, r in intervals.items()
            ],
        )
    )
    trees = forest_size_ablation()
    print("\nAblation — forest size (Svc1, combined QoE)")
    print(
        format_table(
            ["trees", "accuracy", "recall"],
            [
                [str(n), format_percent(r["accuracy"]), format_percent(r["recall"])]
                for n, r in trees.items()
            ],
        )
    )
    return {"intervals": intervals, "forest_size": trees}
