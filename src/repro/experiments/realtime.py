"""Extension: how early can low QoE be detected? (paper limitation #3)

The paper notes its approach "is not suitable for inferring and
managing user dissatisfaction in real-time" because the proxy reports a
TLS transaction only when the connection closes.  This experiment
quantifies exactly that: for each observation window ``T``, features
are computed only from transactions that have *closed* within the
session's first ``T`` seconds, and a model is trained per window.

Two curves come out: accuracy/recall versus window length, and the
fraction of sessions that are even observable (at least one closed
transaction) by then.  The shape shows how much of the paper's
accuracy survives partial observation — the knob an ISP would use to
trade detection latency against accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.collection.dataset import Dataset
from repro.experiments.common import (
    cv_report_for,
    format_percent,
    format_table,
    get_corpus,
    matrix_stage,
)
from repro.experiments.registry import Claim, experiment
from repro.features.tls_features import extract_tls_features
from repro.tlsproxy.records import TlsTransaction

__all__ = ["WINDOWS_S", "prefix_features", "run", "main"]

#: Observation windows (seconds from session start); None = full session.
WINDOWS_S = (30.0, 60.0, 120.0, 240.0, 480.0, None)


def _full_beats_first_30s(result: dict) -> tuple:
    """Not checked when too few sessions are observable at 30 s to
    train a model (NaN accuracy)."""
    accuracies = (result["full"]["accuracy"], result["30s"]["accuracy"])
    if np.isnan(accuracies[1]):
        return accuracies, None
    return accuracies, accuracies[0] >= accuracies[1] - 0.02


# Longer observation windows never lose much accuracy, and
# observability grows with the window.
CLAIMS = (
    Claim("accuracy: full session >= first 30 s - 0.02", "not real-time",
          _full_beats_first_30s),
    Claim("sessions observable: full session >= first 30 s", "not real-time",
          lambda r: (v := (r["full"]["coverage"], r["30s"]["coverage"]), v[0] >= v[1])),
)


def prefix_features(
    transactions: list[TlsTransaction], window_s: float | None
) -> np.ndarray | None:
    """Features from transactions closed within the window, or None.

    ``None`` means the session is unobservable in this window: the
    proxy has not yet exported a single transaction.
    """
    if window_s is None:
        return extract_tls_features(transactions)
    session_start = min(t.start for t in transactions)
    visible = [t for t in transactions if t.end <= session_start + window_s]
    if not visible:
        return None
    return extract_tls_features(visible)


def run(dataset: Dataset | None = None, target: str = "combined") -> dict:
    """Accuracy/recall/coverage per observation window."""
    dataset = dataset if dataset is not None else get_corpus("svc1")
    y_all = dataset.labels(target)
    result = {}
    for window in WINDOWS_S:

        def build(window=window) -> dict[str, np.ndarray]:
            rows = []
            keep = []
            for i, transactions in enumerate(dataset.iter_transactions()):
                vector = prefix_features(transactions, window)
                if vector is not None:
                    rows.append(vector)
                    keep.append(i)
            return {
                "X": np.vstack(rows) if rows else np.empty((0, 0)),
                "keep": np.array(keep, dtype=np.int64),
            }

        prefix = matrix_stage(
            dataset, "tls-prefix-features", {"window": window}, build
        )
        X, keep = prefix["X"], prefix["keep"]
        coverage = keep.size / len(dataset)
        label = "full" if window is None else f"{window:.0f}s"
        if keep.size < 30 or np.unique(y_all[keep]).size < 2:
            result[label] = {
                "accuracy": float("nan"),
                "recall": float("nan"),
                "coverage": coverage,
            }
            continue
        report = cv_report_for(
            dataset,
            X,
            y_all[keep],
            {"features": "tls-prefix", "window": window, "target": target},
        )
        result[label] = {
            "accuracy": report.accuracy,
            "recall": report.recall,
            "coverage": coverage,
        }
    return result


@experiment(
    "realtime",
    title="Extension: partial-session detection",
    paper_ref="§5, limitation #3",
    description="Accuracy vs observation-window length",
    order=170,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print the detection-latency curve."""
    result = run()
    print("Extension — partial-session (near-real-time) detection, Svc1")
    rows = [
        [
            window,
            format_percent(r["accuracy"]),
            format_percent(r["recall"]),
            f"{r['coverage']:.0%}",
        ]
        for window, r in result.items()
    ]
    print(
        format_table(
            ["window", "accuracy", "low-QoE recall", "sessions observable"], rows
        )
    )
    return result
