"""Extension: sensitivity to streaming-application design (§4.3 #1).

The paper's first limitation: inference "depends on the design of the
streaming application.  In an extreme case, an application may be
designed to stream the entire session over a single TLS connection,
thus rendering the transaction-level statistics and temporal features
used in our model ineffective."

This experiment builds that extreme application and two intermediate
designs, streams the same network mixture through each, and measures
what survives:

* **baseline** — the stock Svc2 profile (many connections);
* **bola** — Svc2's wire personality with a BOLA player (different ABR,
  same connection behaviour): inference should be robust to the
  *adaptation* logic;
* **mono** — the paper's adversarial design: one CDN edge, effectively
  unlimited keep-alive and idle timeout, muxed audio, so the whole
  session collapses into very few TLS transactions.

For each design the full feature set and the session-level-only subset
are evaluated; the paper's prediction is that the mono design erases
most of the advantage the transaction/temporal features provide.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.experiments.common import (
    corpus_size,
    cv_report_for,
    features_for,
    format_percent,
    format_table,
    profile_corpus,
)
from repro.experiments.registry import experiment
from repro.features.tls_features import TLS_FEATURE_NAMES, feature_groups
from repro.has.abr import BolaAbr
from repro.has.services import SERVICES, ServiceProfile
from repro.tlsproxy.hosts import ServiceHostModel

__all__ = ["design_variants", "run", "main"]


def design_variants() -> dict[str, ServiceProfile]:
    """The three application designs under study."""
    base = SERVICES["svc2"]
    bola = dataclasses.replace(
        base,
        abr_factory=lambda ladder: BolaAbr(
            ladder,
            segment_duration_s=base.segment_duration_s,
            target_buffer_s=base.buffer_capacity_s * 0.8,
            min_buffer_s=8.0,
        ),
    )
    mono = dataclasses.replace(
        base,
        host_model=ServiceHostModel(
            service="svc2",
            n_edge_nodes=300,
            edges_per_session=1,
            separate_audio_host=False,
        ),
        separate_audio=False,
        idle_timeout_s=100_000.0,
        max_requests_per_connection=1_000_000,
        beacon_interval_s=100_000.0,
    )
    return {"baseline": base, "bola": bola, "mono": mono}


def _sl_columns() -> np.ndarray:
    wanted = set(feature_groups()["session_level"])
    return np.array([i for i, n in enumerate(TLS_FEATURE_NAMES) if n in wanted])


def run(n_sessions: int | None = None, seed: int = 404) -> dict:
    """Accuracy per design, full features vs session-level only."""
    if n_sessions is None:
        n_sessions = corpus_size("svc2")
    result = {}
    sl_cols = _sl_columns()
    for name, profile in design_variants().items():
        dataset = profile_corpus(f"appdesign-{name}", profile, n_sessions, seed)
        X, _ = features_for(dataset)
        y = dataset.labels("combined")
        full = cv_report_for(
            dataset, X, y, {"features": "tls", "target": "combined"}
        )
        sl_only = cv_report_for(
            dataset,
            X[:, sl_cols],
            y,
            {
                "features": "tls",
                "groups": ("session_level",),
                "target": "combined",
            },
        )
        result[name] = {
            "full_accuracy": full.accuracy,
            "full_recall": full.recall,
            "sl_accuracy": sl_only.accuracy,
            "fine_feature_gain": full.accuracy - sl_only.accuracy,
            "tls_per_session": float(
                np.mean(dataset.column("n_tls_transactions"))
            ),
        }
    return result


@experiment(
    "appdesign",
    title="Extension: application-design sensitivity",
    paper_ref="§4.3, limitation #1",
    description="What a single-connection design does to the features",
    order=190,
)
def main() -> dict:
    """Run and print the application-design study."""
    result = run()
    print("Extension — sensitivity to application design (Svc2 variants)")
    rows = [
        [
            name,
            f"{r['tls_per_session']:.1f}",
            format_percent(r["full_accuracy"]),
            format_percent(r["sl_accuracy"]),
            f"{r['fine_feature_gain']:+.1%}",
        ]
        for name, r in result.items()
    ]
    print(
        format_table(
            ["design", "TLS txns/session", "full features", "SL only",
             "fine-feature gain"],
            rows,
        )
    )
    base_gain = result["baseline"]["fine_feature_gain"]
    mono_gain = result["mono"]["fine_feature_gain"]
    print(
        f"\npaper §4.3 check: the single-connection design cuts the value of "
        f"transaction/temporal features from {base_gain:+.1%} to {mono_gain:+.1%}."
    )
    return result


if __name__ == "__main__":
    main()
