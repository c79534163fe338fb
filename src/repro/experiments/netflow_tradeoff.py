"""Extension: the full accuracy-vs-granularity spectrum.

The paper's conclusion proposes NetFlow-style flow records as a future
data source between TLS transactions and packet traces.  This
experiment runs all three on the same corpora:

    TLS transactions  <  flow records (w/ periodic summaries)  <  packets

and reports accuracy, low-QoE recall, and records-per-session for
each, completing the scalability-vs-accuracy trade-off the paper
sketches in §5.
"""

from __future__ import annotations

import numpy as np

from repro.collection.dataset import Dataset
from repro.experiments.common import (
    SERVICES,
    cv_report_for,
    features_for,
    flow_features_for,
    format_percent,
    format_table,
    get_corpus,
    ml16_features_for,
)
from repro.experiments.registry import experiment
from repro.netflow.exporter import export_flow_table

__all__ = ["run", "run_service", "main"]


def _flow_records(dataset: Dataset) -> np.ndarray:
    """Flow records per session, off the columnar export's offsets."""
    return np.concatenate(
        [
            export_flow_table(transfers, offsets).counts
            for transfers, offsets in dataset.transfer_blocks()
        ]
    )


def run_service(dataset: Dataset, target: str = "combined") -> dict:
    """TLS vs NetFlow vs packet accuracy for one service."""
    y = dataset.labels(target)
    result = {}

    X_tls, _ = features_for(dataset)
    tls = cv_report_for(dataset, X_tls, y, {"features": "tls", "target": target})
    result["tls"] = {
        "accuracy": tls.accuracy,
        "recall": tls.recall,
        "records_per_session": float(
            np.mean(dataset.column("n_tls_transactions"))
        ),
    }

    X_flow, _ = flow_features_for(dataset)
    flow = cv_report_for(dataset, X_flow, y, {"features": "flow", "target": target})
    result["netflow"] = {
        "accuracy": flow.accuracy,
        "recall": flow.recall,
        "records_per_session": float(np.mean(_flow_records(dataset))),
    }

    X_pkt, _ = ml16_features_for(dataset)
    pkt = cv_report_for(dataset, X_pkt, y, {"features": "ml16", "target": target})
    result["packets"] = {
        "accuracy": pkt.accuracy,
        "recall": pkt.recall,
        "records_per_session": float(np.mean(dataset.column("n_packets"))),
    }
    return result


def run(datasets: dict[str, Dataset] | None = None) -> dict:
    """The trade-off for every service."""
    if datasets is None:
        datasets = {svc: get_corpus(svc) for svc in SERVICES}
    return {svc: run_service(ds) for svc, ds in datasets.items()}


@experiment(
    "netflow_tradeoff",
    title="Extension: NetFlow trade-off",
    paper_ref="§5 (proposed future data source)",
    description="Accuracy vs granularity: TLS vs flow records vs packets",
    order=140,
)
def main() -> dict:
    """Run and print the spectrum."""
    result = run()
    print("Extension — accuracy vs granularity across data sources")
    for svc, by_source in result.items():
        print(f"\n{svc}:")
        rows = [
            [
                source,
                format_percent(r["accuracy"]),
                format_percent(r["recall"]),
                f"{r['records_per_session']:,.1f}",
            ]
            for source, r in by_source.items()
        ]
        print(
            format_table(["data source", "accuracy", "recall", "records/session"], rows)
        )
    print(
        "\nexpected ordering (paper §5): TLS <= NetFlow <= packets in accuracy, "
        "with record volume growing the same way."
    )
    return result


if __name__ == "__main__":
    main()
