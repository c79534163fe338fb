"""Figure 5: estimation accuracy per QoE metric.

For each service and each QoE target, train the Random Forest on the
38 TLS features with 5-fold cross validation and report overall
accuracy plus recall/precision of the *worst* class (low quality, high
re-buffering, low combined QoE).

Paper values (Svc1/Svc2/Svc3): low-video-quality recall 68%/40%/58%,
high-re-buffering recall 21%/71%/63%, combined-QoE recall 73-85%, with
the pattern that each service is most estimable on the metric its
design actually degrades.
"""

from __future__ import annotations

from repro.collection.dataset import Dataset
from repro.experiments.common import (
    SERVICES,
    cv_predictions_for,
    default_forest_config,
    features_for,
    format_percent,
    format_table,
    get_corpus,
)
from repro.experiments.registry import Claim, experiment
from repro.ml.metrics import evaluate_predictions

__all__ = ["run", "run_service", "main", "PAPER_RECALL"]

#: Paper-reported recall of the worst class, per service and target.
PAPER_RECALL = {
    ("svc1", "quality"): 0.68,
    ("svc1", "rebuffering"): 0.21,
    ("svc2", "quality"): 0.40,
    ("svc2", "rebuffering"): 0.71,
    ("svc3", "quality"): 0.58,
    ("svc3", "rebuffering"): 0.63,
    ("svc1", "combined"): 0.73,
    ("svc2", "combined"): 0.78,
    ("svc3", "combined"): 0.85,
}

TARGETS = ("rebuffering", "quality", "combined")



def _recalls(result: dict, svc: str, *targets: str) -> list[float]:
    return [result[svc][target]["recall"] for target in targets]


CLAIMS = (
    # Combined QoE is detectable for every service...
    *(
        Claim(f"{svc} combined {metric} > 0.6",
              f"{PAPER_RECALL[svc, 'combined']:.0%}" if metric == "recall" else "-",
              lambda r, svc=svc, m=metric: (v := r[svc]["combined"][m], v > 0.6))
        for svc in SERVICES
        for metric in ("recall", "accuracy")
    ),
    # ...and each service's weak metric matches its design: Svc1 (huge
    # buffer) hides re-buffering, Svc2 (sticky quality) hides quality.
    Claim("svc1 recall: quality > re-buffering",
          f"{PAPER_RECALL['svc1', 'quality']:.0%} > {PAPER_RECALL['svc1', 'rebuffering']:.0%}",
          lambda r: (v := _recalls(r, "svc1", "quality", "rebuffering"), v[0] > v[1])),
    Claim("svc2 recall: re-buffering > quality",
          f"{PAPER_RECALL['svc2', 'rebuffering']:.0%} > {PAPER_RECALL['svc2', 'quality']:.0%}",
          lambda r: (v := _recalls(r, "svc2", "rebuffering", "quality"), v[0] > v[1])),
)


def run_service(
    dataset: Dataset,
    targets: tuple[str, ...] = TARGETS,
    n_estimators: int | None = None,
) -> dict:
    """A/R/P per QoE target for one service's corpus.

    Also returns the out-of-fold predictions so downstream experiments
    (Table 2's confusion matrix) can reuse them without retraining.
    """
    X, _ = features_for(dataset)
    model_config = default_forest_config()
    if n_estimators is not None:
        model_config["n_estimators"] = n_estimators
    result: dict = {}
    for target in targets:
        y = dataset.labels(target)
        y_pred = cv_predictions_for(
            dataset,
            X,
            y,
            {"features": "tls", "target": target},
            model_config=model_config,
        )
        report = evaluate_predictions(y, y_pred, positive=0)
        result[target] = {
            "accuracy": report.accuracy,
            "recall": report.recall,
            "precision": report.precision,
            "confusion": report.confusion,
            "y_true": y,
            "y_pred": y_pred,
        }
    return result


def run(
    datasets: dict[str, Dataset] | None = None,
    targets: tuple[str, ...] = TARGETS,
) -> dict:
    """Figure 5 for every service.

    Corpus collection and the fold loops inside
    :func:`~repro.experiments.common.cv_predictions_for` are
    parallel (``REPRO_JOBS``); the service loop itself stays in this
    process so every prediction vector lands in the artifact store.
    """
    if datasets is None:
        datasets = {svc: get_corpus(svc) for svc in SERVICES}
    return {svc: run_service(ds, targets) for svc, ds in datasets.items()}


@experiment(
    "fig5",
    title="Figure 5",
    paper_ref="§4.2, Fig. 5",
    description="A/R/P per QoE metric from the 38 TLS features",
    order=40,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print Figure 5's numbers."""
    result = run()
    for svc, by_target in result.items():
        print(f"\nFigure 5 — {svc} (worst-class recall/precision)")
        rows = []
        for target, r in by_target.items():
            paper = PAPER_RECALL.get((svc, target))
            rows.append(
                [
                    target,
                    format_percent(r["accuracy"]),
                    format_percent(r["recall"]),
                    format_percent(r["precision"]),
                    format_percent(paper) if paper is not None else "-",
                ]
            )
        print(
            format_table(
                ["QoE metric", "accuracy", "recall", "precision", "paper recall"],
                rows,
            )
        )
    return result
