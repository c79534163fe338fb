"""Stable public facade — the supported entry points of the library.

Everything an ISP-side user of this reproduction needs is re-exported
here (and from ``repro`` itself) with keyword-only, documented
signatures::

    import repro

    dataset = repro.collect_corpus("svc1", n_sessions=200, seed=7)
    X, names = repro.extract_features(dataset)
    report = repro.cross_validate(X, dataset.labels("combined"))
    model = repro.train_model(X, dataset.labels("combined"))
    groups = repro.detect_sessions(transactions)
    results = repro.run_experiment("fig5")

    detector = repro.StreamDetector(model)      # continuous feeds
    verdicts = detector.ingest("user1/svc1", transaction)

The deep module paths (``repro.collection.harness`` and friends)
remain the implementation and keep working; the packages above them
no longer re-export these entry points.  This facade is the
compatibility contract: its signatures only grow keyword arguments,
and the ``repro`` CLI's data commands are thin argparse layers over it.

Functions here accept plain data (arrays, transaction lists,
datasets), honour the resolved :mod:`repro.config` (jobs, scale,
cache, telemetry) and add no behaviour of their own beyond argument
validation and dispatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.collection.dataset import Dataset
from repro.collection.harness import CollectionConfig
from repro.collection.harness import collect_corpus as _collect_corpus
from repro.features.tls_features import TEMPORAL_INTERVALS, extract_tls_matrix
from repro.ml.metrics import EvalReport
from repro.ml.model_selection import cross_validate as _cross_validate
from repro.sessions.boundary import BoundaryConfig, split_sessions
from repro.stream.engine import StreamConfig, StreamDetector, StreamVerdict
from repro.tlsproxy.records import TlsTransaction
from repro.workloads import get_profile, get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netflow.exporter import ExporterConfig

__all__ = [
    "StreamConfig",
    "StreamDetector",
    "StreamVerdict",
    "collect_corpus",
    "cross_validate",
    "detect_sessions",
    "extract_features",
    "list_scenarios",
    "list_workloads",
    "load_corpus",
    "run_experiment",
    "train_model",
]

#: The feature families :func:`extract_features` can compute.
FEATURE_KINDS = ("tls", "ml16", "flow")


def collect_corpus(
    service: str,
    *,
    n_sessions: int,
    seed: int = 0,
    config: CollectionConfig | None = None,
    scenario: "str | None" = None,
    workload: "str | None" = None,
    jobs: int | None = None,
    out: "str | None" = None,
    shard_size: int | None = None,
) -> Dataset:
    """Simulate and collect a corpus of streaming sessions.

    Parameters
    ----------
    service:
        Profile name (``"svc1"``-``"svc3"``, ``"live1"``-``"live3"``,
        ``"rtc1"``; see :func:`list_workloads`).  The profile names its
        own workload, so the name alone chooses the application model.
        Unknown names raise
        :class:`~repro.workloads.UnknownProfileError` before any session
        is simulated.
    n_sessions:
        Sessions to collect (the paper's corpora are 2111/2216/1440).
    seed:
        Corpus seed; each session derives its own independent RNG
        stream, so results are bit-identical for any worker count —
        and for any shard size.
    config:
        Optional :class:`~repro.collection.harness.CollectionConfig`
        overriding watch durations / the bandwidth-trace mixture.
    scenario:
        Network-impairment scenario name to stream every session over
        (see :func:`list_scenarios`).  Default: the ``config``
        argument's scenario, else identity.  Unknown names raise
        :class:`~repro.net.scenarios.UnknownScenarioError` before any
        session is simulated.
    workload:
        Optional check, selecting nothing: the workload the caller
        expects ``service`` to belong to.  An unknown name raises
        :class:`~repro.workloads.UnknownWorkloadError`, and another
        workload's name raises ``ValueError``, both before any session
        is simulated.
    jobs:
        Worker processes (default: the resolved config's ``jobs``).
    out:
        Target *directory*: the corpus is written there as format-4
        shards, and the returned corpus reads them on demand.  Without
        it the corpus returns in memory.  Required when ``shard_size``
        is given.
    shard_size:
        Sessions per shard (default: ``REPRO_SHARD_SIZE``, then 512).

    Returns
    -------
    Dataset
        The collected corpus, ready for :func:`extract_features`
        (stored when ``out`` is given, else held in memory).
    """
    profile = get_profile(service)
    if workload is not None and get_workload(workload).name != profile.workload:
        raise ValueError(
            f"profile {service!r} belongs to workload {profile.workload!r}, "
            f"not {workload!r}"
        )
    if scenario is not None:
        import dataclasses

        from repro.net.scenarios import resolve_scenario

        config = dataclasses.replace(
            config or CollectionConfig(), scenario=resolve_scenario(scenario)
        )
    return _collect_corpus(
        profile, n_sessions, seed=seed, config=config, n_jobs=jobs,
        out=out, shard_size=shard_size,
    )


def list_scenarios() -> "list[dict[str, str]]":
    """The registered network-impairment scenarios, identity first.

    Each entry is ``{"name", "title", "description", "pipeline"}`` —
    plain strings, ready for display.  Pass an entry's ``name`` as
    :func:`collect_corpus`'s ``scenario`` to stream a corpus over it.
    """
    from repro.net.scenarios import all_scenarios

    return [
        {
            "name": sc.name,
            "title": sc.title,
            "description": sc.description,
            "pipeline": sc.describe(),
        }
        for sc in all_scenarios()
    ]


def list_workloads() -> "list[dict[str, object]]":
    """The registered workloads (application models), default first.

    Each entry is ``{"name", "title", "description", "profiles"}``
    where ``profiles`` lists the profile names :func:`collect_corpus`
    accepts as ``service`` for that workload: pass one of them to
    generate that application's traffic.
    """
    from repro.workloads import all_workloads

    return [
        {
            "name": wl.name,
            "title": wl.title,
            "description": wl.description,
            "profiles": wl.profile_names(),
        }
        for wl in all_workloads()
    ]


def load_corpus(path: "str") -> Dataset:
    """Open a stored corpus: a format-4 shard directory.

    ``path`` is the directory (or its ``manifest.json``); the result is
    a :class:`Dataset` that reads only the manifest up front and reads
    shards on demand.  Malformed or incomplete directories, and any file (the
    retired single-file formats 1-3 included), raise
    :class:`~repro.collection.dataset.DatasetFormatError` naming the
    path.
    """
    return Dataset.load(path)


def extract_features(
    dataset: Dataset,
    *,
    kind: str = "tls",
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
    seed: int = 0,
    exporter: "ExporterConfig | None" = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """One feature matrix (and its column names) for a corpus.

    Parameters
    ----------
    dataset:
        A corpus from :func:`collect_corpus` or :func:`load_corpus`
        (for ``kind="tls"``, a
        :class:`~repro.tlsproxy.table.TransactionTable` of sessions
        also works).
    kind:
        ``"tls"`` — the paper's 38 coarse-grained features (default);
        ``"ml16"`` — the packet-trace baseline (Dimopoulos et al.);
        ``"flow"`` — the NetFlow middle ground.
    intervals:
        Temporal-interval grid for ``kind="tls"`` (paper §3).
    seed:
        Packet-trace synthesis seed for ``kind="ml16"``.
    exporter:
        Exporter timeouts for ``kind="flow"``
        (:class:`~repro.netflow.exporter.ExporterConfig`).

    Returns
    -------
    (X, names):
        ``X`` has one row per session; ``names`` labels its columns.
        A corpus of zero sessions yields a well-formed ``(0, len(names))``
        matrix; a session with zero transactions raises a ``ValueError``
        naming the offending session.
    """
    if kind == "tls":
        return extract_tls_matrix(dataset, intervals=intervals)
    if kind == "ml16":
        from repro.features.packet_features import extract_ml16_matrix

        return extract_ml16_matrix(dataset, seed=seed)
    if kind == "flow":
        from repro.netflow.features import extract_flow_matrix

        return extract_flow_matrix(dataset, exporter)
    raise ValueError(
        f"unknown feature kind {kind!r} (choose from {FEATURE_KINDS})"
    )


def train_model(
    X: np.ndarray,
    y: np.ndarray,
    *,
    model: dict | None = None,
):
    """Fit the paper's estimator (or any declarative model config).

    Parameters
    ----------
    X, y:
        Feature matrix and categorical labels (``dataset.labels(...)``).
    model:
        A model-config dict (``{"kind": "random_forest", ...}``; see
        :func:`repro.experiments.common.build_model`).  Default: the
        paper's 60-tree Random Forest.

    Returns
    -------
    The fitted estimator (``predict(X)`` ready).
    """
    from repro.experiments.common import build_model, default_forest_config

    estimator = build_model(model if model is not None else default_forest_config())
    return estimator.fit(np.asarray(X, dtype=np.float64), np.asarray(y))


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    *,
    model: dict | object | None = None,
    n_splits: int = 5,
    positive: int = 0,
    random_state: int | None = 0,
    jobs: int | None = None,
) -> EvalReport:
    """The paper's evaluation protocol: stratified k-fold CV.

    Parameters
    ----------
    X, y:
        Feature matrix and categorical labels.
    model:
        A model-config dict, an (unfitted) estimator instance, or None
        for the paper's Random Forest.
    n_splits:
        Folds (the paper uses 5).
    positive:
        The class recall/precision report on (0 = "low QoE").
    random_state:
        Fold-assignment seed.
    jobs:
        Worker processes for the fold fan-out.

    Returns
    -------
    EvalReport
        Pooled out-of-fold accuracy/recall/precision + confusion.
    """
    if model is None or isinstance(model, dict):
        from repro.experiments.common import build_model, default_forest_config

        estimator = build_model(model if model is not None else default_forest_config())
    else:
        estimator = model
    return _cross_validate(
        estimator,
        np.asarray(X, dtype=np.float64),
        np.asarray(y),
        n_splits=n_splits,
        positive=positive,
        random_state=random_state,
        n_jobs=jobs,
    )


def detect_sessions(
    transactions: Sequence[TlsTransaction],
    *,
    config: BoundaryConfig | None = None,
    min_transactions: int = 1,
) -> list[list[TlsTransaction]]:
    """Split a merged transaction stream into per-session groups.

    Parameters
    ----------
    transactions:
        The proxy's transaction stream (any order; sorted internally
        with a content-based tie-break, so the grouping is invariant
        to the input permutation even with tied start times).
    config:
        Boundary-heuristic knobs
        (:class:`~repro.sessions.boundary.BoundaryConfig`).
    min_transactions:
        Groups smaller than this merge into the preceding session.
        Must be ``>= 1`` (``ValueError`` otherwise).

    Returns
    -------
    Per-session transaction lists, in time order.  An empty stream
    returns ``[]``; a single transaction returns one single-element
    session.  For continuous feeds, use :class:`StreamDetector`
    instead of re-splitting a growing batch.
    """
    return split_sessions(transactions, config, min_transactions=min_transactions)


def run_experiment(name: str) -> object:
    """Run one registered paper experiment and return its result dict.

    ``name`` is a registry name (``"fig5"``, ``"table3"``, ...); see
    ``python -m repro experiment --list``.  Raises
    :class:`repro.experiments.registry.UnknownExperimentError` for
    unknown names.  The driver prints its paper-vs-measured report and
    returns the numbers the figure/table is built from.
    """
    from repro.experiments import registry

    return registry.get(name).run()
