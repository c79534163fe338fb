"""Policing detection from coarse TLS features (beyond the paper).

Token-bucket policing is the impairment the paper's operator cares
most about — it silently drops the excess of every burst, and Flach
et al. (SIGCOMM 2016) measured it behind ~7% of loss-affected Google
video traffic.  The scenario engine reproduces its signature
(line-rate burst, then a policed trickle with retransmit recovery),
and every session carries a ground-truth ``policed`` label derived
from the policer stage's own drop counters.

This experiment asks: can the *same 38 coarse TLS features* the QoE
detector uses also tell policed sessions from clean ones?  Per
service, the clean corpus and its policed twin are stacked and a
Random Forest is 5-fold cross-validated on the binary ``policed``
target, reporting accuracy/recall/precision against the base rate.
The CV vector is a store artifact chained to *both* corpus digests,
so a warm ``run_all`` recomputes nothing.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    SERVICES,
    cv_predictions_for,
    features_for,
    format_percent,
    format_table,
    get_corpus,
)
from repro.experiments.registry import experiment
from repro.ml.metrics import evaluate_predictions

__all__ = ["POLICED_SCENARIO", "run", "main"]

#: The policed twin every clean corpus is contrasted against.
POLICED_SCENARIO = "policed-2mbps"


def run(services: tuple[str, ...] = SERVICES) -> dict:
    """Policing-detection A/R/P per service (positive class = policed)."""
    result: dict = {}
    for service in services:
        clean = get_corpus(service)
        policed = get_corpus(service, scenario=POLICED_SCENARIO)
        X_clean, _ = features_for(clean)
        X_policed, _ = features_for(policed)
        X = np.vstack([X_clean, X_policed])
        y = np.concatenate(
            [clean.labels("policed"), policed.labels("policed")]
        )
        y_pred = cv_predictions_for(
            (clean, policed),
            X,
            y,
            {
                "features": "tls",
                "target": "policed",
                "scenario": POLICED_SCENARIO,
                "stacked": True,
            },
        )
        report = evaluate_predictions(y, y_pred, positive=1, n_classes=2)
        result[service] = {
            "accuracy": report.accuracy,
            "recall": report.recall,
            "precision": report.precision,
            "base_rate": float(y.mean()) if len(y) else 0.0,
            "n_sessions": int(len(y)),
        }
    return result


@experiment(
    "policing",
    title="Policing detection",
    paper_ref="beyond the paper (Flach et al., SIGCOMM 2016)",
    description="Detect token-bucket policing from coarse TLS features",
    order=210,
)
def main() -> dict:
    """Run and print the policing-detection study."""
    result = run()
    print(
        f"Policing detection — clean vs {POLICED_SCENARIO}, "
        f"38 TLS features, positive = policed"
    )
    rows = [
        [
            service,
            str(r["n_sessions"]),
            format_percent(r["base_rate"]),
            format_percent(r["accuracy"]),
            format_percent(r["recall"]),
            format_percent(r["precision"]),
        ]
        for service, r in result.items()
    ]
    print(
        format_table(
            ["service", "sessions", "base rate", "accuracy", "recall", "precision"],
            rows,
        )
    )
    return result
