"""Extension: estimating startup delay from TLS transactions.

Startup delay is one of the §2.1 QoE factors the paper lists but does
not estimate.  The simulator's ground truth includes each session's
startup delay, so this experiment asks whether the same 38 TLS features
recover a categorical startup-delay label:

* **fast** (2) — first frame within 5 s,
* **medium** (1) — 5-15 s,
* **slow** (0) — longer than 15 s.

The early temporal features (``CUM_DL_30s``/``CUM_UL_30s``) carry most
of the signal: slow startups mean little data moved early.
"""

from __future__ import annotations

import numpy as np

from repro.collection.dataset import Dataset
from repro.experiments.common import (
    cv_report_for,
    features_for,
    format_percent,
    format_table,
    get_corpus,
)
from repro.experiments.registry import experiment

__all__ = ["startup_category", "startup_labels", "run", "main"]

#: Category thresholds in seconds (fast <= FAST_MAX < medium <= MEDIUM_MAX).
FAST_MAX_S = 5.0
MEDIUM_MAX_S = 15.0


def startup_category(delay_s: float) -> int:
    """0 slow / 1 medium / 2 fast (worst-first encoding, like §2.1)."""
    if delay_s < 0:
        raise ValueError("startup delay must be non-negative")
    if delay_s <= FAST_MAX_S:
        return 2
    if delay_s <= MEDIUM_MAX_S:
        return 1
    return 0


def startup_labels(dataset: Dataset) -> np.ndarray:
    """Startup-delay categories for a corpus."""
    return np.array(
        [startup_category(d) for d in dataset.column("startup_delay").tolist()],
        dtype=np.int64,
    )


def run(dataset: Dataset | None = None) -> dict:
    """Startup-delay estimation accuracy on one corpus."""
    dataset = dataset if dataset is not None else get_corpus("svc1")
    X, _ = features_for(dataset)
    y = startup_labels(dataset)
    counts = np.bincount(y, minlength=3)
    report = cv_report_for(
        dataset, X, y, {"features": "tls", "target": "startup"}
    )
    return {
        "accuracy": report.accuracy,
        "recall": report.recall,  # slow-startup recall (class 0)
        "precision": report.precision,
        "distribution": (counts / counts.sum()).tolist(),
        "confusion": report.confusion,
    }


@experiment(
    "startup",
    title="Extension: startup-delay estimation",
    paper_ref="§2.1 (unestimated QoE factor)",
    description="Categorical startup delay from the 38 TLS features",
    order=180,
)
def main() -> dict:
    """Run and print the startup-delay study."""
    result = run()
    print("Extension — startup-delay estimation from TLS transactions (Svc1)")
    dist = result["distribution"]
    print(
        f"label distribution: {dist[0]:.0%} slow / {dist[1]:.0%} medium / "
        f"{dist[2]:.0%} fast"
    )
    print(
        format_table(
            ["accuracy", "slow-startup recall", "precision"],
            [
                [
                    format_percent(result["accuracy"]),
                    format_percent(result["recall"]),
                    format_percent(result["precision"]),
                ]
            ],
        )
    )
    return result


if __name__ == "__main__":
    main()
