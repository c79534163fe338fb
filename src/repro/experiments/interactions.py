"""Extension: impact of user interactions on inference accuracy.

The paper's limitation #2: "Our experiments do not consider the impact
of user interactions ... pausing and skipping would manifest in
different ways in the TLS transaction data.  Understanding the impact
of user interactions on inference accuracy is a part of the future
work."

This experiment does that study: it collects a corpus where viewers
pause and seek (via :class:`repro.has.player.UserBehavior`), then
measures combined-QoE accuracy under three protocols:

* **clean→clean** — the paper's setting (baseline);
* **clean→interactive** — model trained on interaction-free sessions,
  deployed on real users who pause and skip;
* **interactive→interactive** — model retrained on matching data.
"""

from __future__ import annotations

import numpy as np

import dataclasses

from repro.collection.dataset import Dataset, SessionRecord
from repro.collection.harness import CollectionConfig
from repro.experiments.common import (
    corpus_size,
    cv_report_for,
    dataset_stage,
    features_for,
    fit_predictions_for,
    format_percent,
    format_table,
    get_corpus,
)
from repro.experiments.registry import experiment
from repro.has.player import PlayerSession, UserBehavior
from repro.has.services import get_service
from repro.ml.metrics import evaluate_predictions
from repro.net.link import Link

__all__ = ["collect_interactive_corpus", "run", "main", "DEFAULT_BEHAVIOR"]

DEFAULT_BEHAVIOR = UserBehavior(
    pauses_per_minute=0.35,
    pause_duration_s=(5.0, 60.0),
    seeks_per_minute=0.25,
    seek_segments=(2, 15),
)


def collect_interactive_corpus(
    service: str,
    n_sessions: int,
    seed: int = 0,
    behavior: UserBehavior = DEFAULT_BEHAVIOR,
    config: CollectionConfig | None = None,
) -> Dataset:
    """A corpus whose viewers pause and seek."""
    profile = get_service(service)
    config = config or CollectionConfig()
    catalog = profile.make_catalog(seed=config.catalog_seed)
    rng = np.random.default_rng(seed)
    from repro.collection.harness import default_tcp_params

    records = []
    for _ in range(n_sessions):
        trace = config.sample_trace(rng)
        player = PlayerSession(
            profile=profile,
            video=catalog.sample(rng),
            link=Link(trace=trace),
            rng=rng,
            watch_duration_s=config.sample_watch_duration(rng),
            tcp_params_factory=default_tcp_params,
            behavior=behavior,
        )
        records.append(SessionRecord.from_trace(player.run(), profile))
    return Dataset(service=profile.name, sessions=records)


def run(
    service: str = "svc1",
    clean: Dataset | None = None,
    interactive: Dataset | None = None,
    target: str = "combined",
) -> dict:
    """Accuracy under the three train/test protocols."""
    clean = clean if clean is not None else get_corpus(service)
    if interactive is None:
        n_sessions = corpus_size(service)
        interactive = dataset_stage(
            "corpus-interactive",
            {
                "service": service,
                "n_sessions": n_sessions,
                "seed": 777,
                "behavior": dataclasses.asdict(DEFAULT_BEHAVIOR),
            },
            lambda out, shard_size: collect_interactive_corpus(
                service, n_sessions, seed=777
            ).save(out, shard_size),
        )
    X_clean, _ = features_for(clean)
    y_clean = clean.labels(target)
    X_inter, _ = features_for(interactive)
    y_inter = interactive.labels(target)

    stage = {"features": "tls", "target": target}
    baseline = cv_report_for(clean, X_clean, y_clean, stage)
    matched = cv_report_for(interactive, X_inter, y_inter, stage)
    transfer = evaluate_predictions(
        y_inter,
        fit_predictions_for(
            clean, interactive, X_clean, y_clean, X_inter, stage
        ),
    )

    return {
        "clean->clean": {"accuracy": baseline.accuracy, "recall": baseline.recall},
        "clean->interactive": {
            "accuracy": transfer.accuracy,
            "recall": transfer.recall,
        },
        "interactive->interactive": {
            "accuracy": matched.accuracy,
            "recall": matched.recall,
        },
        "interaction_rates": {
            "pauses_per_minute": DEFAULT_BEHAVIOR.pauses_per_minute,
            "seeks_per_minute": DEFAULT_BEHAVIOR.seeks_per_minute,
        },
    }


@experiment(
    "interactions",
    title="Extension: user interactions",
    paper_ref="§5, limitation #2",
    description="Pause/seek behaviour vs inference accuracy",
    order=160,
)
def main() -> dict:
    """Run and print the interaction study."""
    result = run()
    print("Extension — impact of user interactions (Svc1, combined QoE)")
    rows = [
        [
            protocol,
            format_percent(r["accuracy"]),
            format_percent(r["recall"]),
        ]
        for protocol, r in result.items()
        if protocol != "interaction_rates"
    ]
    print(format_table(["train->test", "accuracy", "recall"], rows))
    drop = (
        result["clean->clean"]["accuracy"]
        - result["clean->interactive"]["accuracy"]
    )
    regain = (
        result["interactive->interactive"]["accuracy"]
        - result["clean->interactive"]["accuracy"]
    )
    print(
        f"\ninteractions cost the clean-trained model {drop:.0%} of its "
        f"accuracy; retraining on interactive data wins back {regain:.0%}."
    )
    return result


if __name__ == "__main__":
    main()
