"""Experiment drivers — one module per table/figure of the paper.

Each module exposes ``run(...) -> dict`` returning the numeric rows or
series the corresponding plot/table is built from, plus a ``main()``
that prints them next to the paper's reported values, registered with
:func:`repro.experiments.registry.experiment` together with the paper
claims its result must keep.  Run a driver with
``python -m repro experiment NAME`` (``all`` runs the suite); every
registry run prints each claim's paper value, measured value and
verdict, and ``benchmarks/test_bench_claims.py`` fails on any claim
that does not hold.

| Module   | Paper artifact                                            |
|----------|-----------------------------------------------------------|
| fig2     | TLS vs HTTP transactions in a session's first seconds     |
| fig3     | Bandwidth-trace statistics (CDF + duration buckets)       |
| fig4     | Ground-truth QoE distributions per service                |
| fig5     | Accuracy/recall/precision per QoE metric                  |
| table2   | Confusion matrix, Svc1 combined QoE                       |
| table3   | Feature-set ablation                                      |
| fig6     | Top-10 Random-Forest feature importances                  |
| fig7     | Matched-session feature distributions                     |
| table4   | ML16 packet-trace baseline vs TLS                         |
| table5   | Session-boundary heuristic confusion                      |
| overhead | Memory/computation overhead: packets vs TLS transactions  |
| models   | Model-family sweep (RF vs SVM/k-NN/GBT/MLP)               |

Beyond the paper's artifacts (its stated future work and limitations):

| Module            | Extension                                        |
|-------------------|--------------------------------------------------|
| ablations         | temporal-interval grid + forest-size sweeps      |
| netflow_tradeoff  | TLS < NetFlow < packets granularity spectrum     |
| generalization    | train/test matrices across services (38 TLS      |
|                   | features) and across HAS/live/RTC (TLS vs the    |
|                   | application-agnostic subset)                     |
| interactions      | pause/seek impact on inference accuracy          |
| realtime          | partial-session (detection-latency) curve        |
| startup           | startup-delay estimation from the same features  |
| robustness        | scenario x service x model accuracy matrix under |
|                   | adversarial networks (policing, bufferbloat, ...)|
| policing          | detect *that* a session was policed from the     |
|                   | 38 TLS features (clean vs policed corpora)       |
"""

from repro.experiments import common

__all__ = ["common"]
