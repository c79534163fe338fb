"""Robustness matrix: QoE inference under adversarial networks.

The paper's detector is trained and evaluated on sessions streamed
over clean (if throttled) links.  Real access networks police, shape,
reorder and bufferbloat — the scenario engine (:mod:`repro.net.scenarios`)
replays the same corpora over those impairments, and this experiment
asks the robustness question the paper leaves open: does the combined
QoE detector keep working when the network itself is adversarial?

One cell per (scenario, service, model): collect the service's corpus
under the scenario, extract the 38 TLS features, and run the paper's
5-fold CV on the combined QoE target.  Every cell is an artifact —
the impaired corpora cache side by side with the clean ones (the
scenario name joins the stage fingerprint only when non-identity), so
the identity column is shared bit-for-bit with every other experiment.

``main()`` also writes the matrix to ``robustness-matrix.json`` —
the artifact the CI ``scenarios`` job publishes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.common import (
    SERVICES,
    cv_report_for,
    default_forest_config,
    features_for,
    format_percent,
    format_table,
    get_corpus,
)
from repro.experiments.registry import experiment
from repro.net.scenarios import get_scenario

__all__ = ["MATRIX_PATH", "SCENARIOS", "robustness_models", "run", "main"]

#: Scenario axis of the matrix: the clean baseline plus one
#: representative of each impairment family the engine models.
SCENARIOS = ("identity", "policed-2mbps", "bufferbloat-1mb", "reorder-50ms")

#: Where ``main()`` writes the machine-readable matrix (cwd-relative).
MATRIX_PATH = Path("robustness-matrix.json")


def robustness_models() -> dict[str, dict]:
    """The two strongest families from the model sweep, as configs."""
    return {
        "RandomForest": default_forest_config(),
        "GBT": {
            "kind": "gradient_boosting",
            "n_estimators": 60,
            "max_depth": 4,
            "learning_rate": 0.1,
            "subsample": 0.8,
            "random_state": 0,
        },
    }


def run(
    services: tuple[str, ...] = SERVICES,
    scenarios: tuple[str, ...] = SCENARIOS,
    target: str = "combined",
) -> dict:
    """Accuracy/recall/precision per (scenario, service, model) cell.

    Scenario names are validated up front so a typo fails before any
    corpus is collected.
    """
    for name in scenarios:
        get_scenario(name)
    result: dict = {}
    for scenario in scenarios:
        per_service: dict = {}
        for service in services:
            dataset = get_corpus(service, scenario=scenario)
            X, _ = features_for(dataset)
            y = dataset.labels(target)
            # Identity cells share the exact cv-predictions artifacts of
            # the clean experiments, so the scenario key joins the
            # derivation fingerprint only when it changes the corpus.
            derivation = {"features": "tls", "target": target}
            if scenario != "identity":
                derivation["scenario"] = scenario
            per_model: dict = {}
            for model_name, model_config in robustness_models().items():
                report = cv_report_for(
                    dataset, X, y, derivation, model_config=model_config
                )
                per_model[model_name] = {
                    "accuracy": report.accuracy,
                    "recall": report.recall,
                    "precision": report.precision,
                }
            policed = dataset.labels("policed")
            per_service[service] = {
                "models": per_model,
                "n_sessions": len(dataset),
                "policed_fraction": float(policed.mean()) if len(policed) else 0.0,
            }
        result[scenario] = per_service
    return result


@experiment(
    "robustness",
    title="Robustness matrix",
    paper_ref="§5 (beyond the paper: adversarial networks)",
    description="Combined QoE detection across impairment scenarios",
    order=200,
)
def main() -> dict:
    """Run the matrix, print it, and write ``robustness-matrix.json``."""
    result = run()
    models = list(robustness_models())
    print("Robustness matrix — combined QoE accuracy under impairment")
    headers = ["scenario", "service", "policed"] + [
        f"{m} acc" for m in models
    ]
    rows = []
    for scenario, per_service in result.items():
        for service, cell in per_service.items():
            rows.append(
                [
                    scenario,
                    service,
                    format_percent(cell["policed_fraction"]),
                ]
                + [
                    format_percent(cell["models"][m]["accuracy"])
                    for m in models
                ]
            )
    print(format_table(headers, rows))

    # Degradation summary: worst accuracy drop vs the identity row.
    drops = []
    for scenario in result:
        if scenario == "identity":
            continue
        for service in result[scenario]:
            for m in models:
                base = result["identity"][service]["models"][m]["accuracy"]
                got = result[scenario][service]["models"][m]["accuracy"]
                drops.append((base - got, scenario, service, m))
    if drops:
        worst = max(drops)
        print(
            f"\nworst accuracy drop vs identity: "
            f"{format_percent(worst[0]).strip()} "
            f"({worst[1]} / {worst[2]} / {worst[3]})"
        )

    payload = {
        "experiment": "robustness",
        "target": "combined",
        "scenarios": {
            name: get_scenario(name).describe() for name in result
        },
        "matrix": result,
    }
    MATRIX_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"matrix written to {MATRIX_PATH}")
    return result
