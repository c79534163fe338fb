"""Extension: cross-service and cross-application generalization
(paper §5 future work).

The paper trains one model per service and asks, as future work,
whether models generalize "across different device platforms and
service types".  This experiment trains the combined-QoE model on each
corpus of an axis and evaluates it on every other, producing one
train x test accuracy matrix per axis and featurization:

* **services** — svc1, svc2 and svc3, on the 38 TLS features.  Expected
  shape: a strong diagonal (the paper's per-service protocol) with
  off-diagonal degradation that is worst between the services with the
  most dissimilar designs (Svc1's quality-sacrificing ABR vs Svc2's
  stall-tolerant one).
* **applications** — on-demand HAS (the svc1 corpus), live-HAS players
  with 2-second segments and shallow buffers (:mod:`repro.has.live`)
  and GCC-style congestion-controlled video calls (:mod:`repro.rtc`),
  each on the 38 TLS features and on the application-agnostic subset
  (session + per-transaction aggregates only, Berger et al. style — no
  temporal grid).  The axis asks a question and asserts no answer: do
  the 38 features, whose temporal-interval grid encodes HAS's periodic
  segment cadence (RTC sends continuously; live-HAS beats at 2 s, not
  5 s), carry a model across applications, and does the agnostic
  subset lose less off the diagonal at the cost of some
  in-application accuracy?  No claim covers this axis: at
  ``REPRO_SCALE=0.25`` the mean off-diagonal accuracy read 42% on the
  38 features and 41% on the agnostic subset, so the subset did not
  lose less on average, though single cells moved both ways.

``main()`` also writes the applications axis to
``cross-app-matrix.json`` — the artifact the CI ``workloads`` job
publishes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.collection.dataset import Dataset
from repro.experiments.common import (
    SERVICES,
    cv_report_for,
    features_for,
    fit_predictions_for,
    format_percent,
    format_table,
    get_corpus,
    profile_corpus,
    scale,
)
from repro.experiments.registry import Claim, experiment
from repro.features.tls_features import agnostic_feature_names, select_features
from repro.ml.metrics import evaluate_predictions

__all__ = ["AXES", "MATRIX_PATH", "default_corpora", "transfer_matrix", "run", "main"]

#: Application axis: one representative profile per registered
#: workload.  The HAS cell reuses the paper's svc1 corpus artifact;
#: the other corpora are sized to match it so the transfer cells
#: compare application models, not corpus sizes.
_APP_PROFILES = {"has": "svc1", "rtc": "rtc1", "live": "live1"}

#: Collection seeds for the non-HAS corpora (has uses svc1's canonical
#: seed via :func:`~repro.experiments.common.get_corpus`).
_APP_SEEDS = {"rtc": 404, "live": 505}

#: Unscaled corpus size for the rtc/live corpora — the paper's svc1
#: corpus is 2111 sessions; these stay comparable without doubling the
#: collection bill.
_APP_CORPUS_SESSIONS = 2111

#: The featurizations each axis is evaluated on.
AXES = {"services": ("tls",), "applications": ("tls", "agnostic")}

#: Where ``main()`` writes the applications matrices (cwd-relative).
MATRIX_PATH = Path("cross-app-matrix.json")


def _in_service_beats_transfer(result: dict, svc: str) -> tuple:
    row = result["services"]["tls"][svc]
    others = [row[t]["accuracy"] for t in row if t != svc]
    accuracies = (row[svc]["accuracy"], sum(others) / len(others))
    return accuracies, accuracies[0] > accuracies[1]


# In-service (diagonal) accuracy beats the average cross-service
# transfer for every service: per-service training matters.
CLAIMS = tuple(
    Claim(f"{svc}-trained accuracy: in-service > mean cross-service", "one model per service",
          lambda r, svc=svc: _in_service_beats_transfer(r, svc))
    for svc in SERVICES
)


def default_corpora() -> dict[str, dict[str, Dataset]]:
    """Each axis's corpora, ``{axis: {name: corpus}}``, all through the
    artifact store."""
    from repro.has.live import LIVE_SERVICES
    from repro.rtc.model import RTC_SERVICES

    services = {svc: get_corpus(svc) for svc in SERVICES}
    n = max(60, int(round(_APP_CORPUS_SESSIONS * scale())))
    profiles = {"rtc": RTC_SERVICES["rtc1"], "live": LIVE_SERVICES["live1"]}
    applications = {"has": services["svc1"]}
    for app in ("rtc", "live"):
        applications[app] = profile_corpus(
            _APP_PROFILES[app], profiles[app], n, _APP_SEEDS[app]
        )
    return {"services": services, "applications": applications}


def _featurize(dataset: Dataset, featurization: str):
    """The feature matrix of a corpus under one featurization.

    Both featurizations derive from the cached 38-column TLS stage;
    ``agnostic`` projects away the temporal-interval grid (the columns
    that hard-code HAS's segment cadence).
    """
    X, names = features_for(dataset)
    if featurization == "tls":
        return X
    if featurization == "agnostic":
        return select_features(X, names, agnostic_feature_names())
    raise ValueError(f"unknown featurization {featurization!r}")


def transfer_matrix(
    datasets: dict[str, Dataset],
    featurization: str = "tls",
    target: str = "combined",
) -> dict:
    """Train-on-A / test-on-B accuracy and low-QoE recall,
    ``{train: {test: {"accuracy", "recall"}}}``.

    The diagonal is the paper's 5-fold CV on each corpus; with the
    plain ``tls`` derivation key it shares the exact cv-predictions
    artifacts of Figure 5.  The agnostic subset is its own derivation.
    """
    features = {name: _featurize(ds, featurization) for name, ds in datasets.items()}
    labels = {name: ds.labels(target) for name, ds in datasets.items()}
    derivation = {
        "features": "tls" if featurization == "tls" else "tls-agnostic",
        "target": target,
    }
    matrix: dict[str, dict[str, dict]] = {}
    for train in datasets:
        matrix[train] = {}
        for test in datasets:
            if train == test:
                report = cv_report_for(
                    datasets[train], features[train], labels[train], derivation
                )
            else:
                y_pred = fit_predictions_for(
                    datasets[train],
                    datasets[test],
                    features[train],
                    labels[train],
                    features[test],
                    derivation,
                )
                report = evaluate_predictions(labels[test], y_pred)
            matrix[train][test] = {
                "accuracy": report.accuracy,
                "recall": report.recall,
            }
    return matrix


def run(
    corpora: dict[str, dict[str, Dataset]] | None = None, target: str = "combined"
) -> dict:
    """``{axis: {featurization: transfer matrix}}`` for each axis of
    ``corpora`` (default: :func:`default_corpora`)."""
    if corpora is None:
        corpora = default_corpora()
    return {
        axis: {
            feat: transfer_matrix(datasets, feat, target) for feat in AXES[axis]
        }
        for axis, datasets in corpora.items()
    }


def _transfer_means(matrix: dict) -> tuple[float, float]:
    """(mean diagonal, mean off-diagonal) accuracy of one matrix."""
    names = list(matrix)
    diag = sum(matrix[a][a]["accuracy"] for a in names) / len(names)
    off = [matrix[a][b]["accuracy"] for a in names for b in names if a != b]
    return diag, sum(off) / len(off)


def _print_matrix(matrix: dict, metric: str) -> None:
    names = list(matrix)
    rows = [
        [f"train {a}"] + [format_percent(matrix[a][b][metric]) for b in names]
        for a in names
    ]
    print(format_table(["", *(f"test {b}" for b in names)], rows))


@experiment(
    "generalization",
    title="Extension: cross-service and cross-application generalization",
    paper_ref="§5 (future work: other services and service types)",
    description="Train x test accuracy matrices over services and over "
    "HAS/live/RTC, TLS vs agnostic features",
    order=150,
    claims=CLAIMS,
)
def main() -> dict:
    """Run both axes, print them, write ``cross-app-matrix.json``."""
    corpora = default_corpora()
    result = run(corpora)
    services = result["services"]["tls"]
    print("Extension — cross-service generalization (accuracy, combined QoE)")
    _print_matrix(services, "accuracy")
    print("\nlow-QoE recall:")
    _print_matrix(services, "recall")
    diag, off = _transfer_means(services)
    print(f"\nmean in-service accuracy {diag:.0%} vs cross-service {off:.0%}")

    for feat, matrix in result["applications"].items():
        label = (
            "38 TLS features (HAS-tuned temporal grid)"
            if feat == "tls"
            else f"{len(agnostic_feature_names())} application-agnostic features"
        )
        print(f"\nCross-application accuracy — {label}")
        _print_matrix(matrix, "accuracy")
    tls_diag, tls_off = _transfer_means(result["applications"]["tls"])
    agn_diag, agn_off = _transfer_means(result["applications"]["agnostic"])
    winner = "agnostic" if agn_off > tls_off else "tls"
    print(
        f"\nin-app accuracy: tls {tls_diag:.0%} vs agnostic {agn_diag:.0%}; "
        f"cross-app transfer: tls {tls_off:.0%} vs agnostic {agn_off:.0%} "
        f"— {winner} features transfer better."
    )

    payload = {
        "experiment": "generalization",
        "target": "combined",
        "apps": {
            app: {
                "profile": _APP_PROFILES[app],
                "workload": getattr(ds, "workload", "has"),
                "n_sessions": len(ds),
            }
            for app, ds in corpora["applications"].items()
        },
        "featurizations": {
            "tls": 38,
            "agnostic": len(agnostic_feature_names()),
        },
        "matrix": result["applications"],
    }
    MATRIX_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"matrix written to {MATRIX_PATH}")
    return result
