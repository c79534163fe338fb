"""Shared infrastructure for the experiment drivers.

Every expensive intermediate the paper's figures and tables re-derive
— the three service corpora, the 38-feature TLS matrices, ML16/flow
matrices, cross-validation prediction vectors, forest importances — is
an artifact of the content-addressed store (:mod:`repro.artifacts`,
``REPRO_CACHE_DIR``, default ``.cache/``).  Drivers never call
``collect_corpus``, ``extract_tls_matrix`` or ``cross_val_predict``
directly; they go through the helpers here, which fingerprint each
stage by (stage name, upstream artifact digests, config dict,
``CACHE_VERSION``) so identical work is computed once per cache, ever.

Every corpus the store builds is a stored format-4 shard directory
(:class:`~repro.collection.dataset.Dataset`) carrying its artifact
digest (:func:`dataset_digest`); helpers fed a digest-less corpus held
in memory (the unit tests build tiny ad-hoc corpora) simply compute
without caching — the cache is an optimization, never a requirement.

Scale control: ``REPRO_SCALE`` (float, default 1.0) multiplies the
paper's corpus sizes — ``REPRO_SCALE=0.2`` runs every experiment on a
fifth of the data for quick iteration.

Model configurations are plain dicts (``{"kind": "random_forest",
...}``) so they can participate in fingerprints; :func:`build_model`
turns one into an estimator.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from repro.artifacts import CACHE_VERSION, STAGING_PREFIX, cache_dir, get_store
from repro.collection.dataset import Dataset, DatasetFormatError
from repro.collection.fleet import extract_tls_sharded
from repro.collection.harness import CollectionConfig, collect_corpus
from repro.config import DEFAULT_SHARD_SIZE, get_config
from repro.net.scenarios import resolve_scenario
from repro.features.packet_features import extract_ml16_matrix
from repro.features.tls_features import TEMPORAL_INTERVALS, extract_tls_matrix
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import EvalReport, evaluate_predictions
from repro.ml.model_selection import cross_val_predict

__all__ = [
    "CACHE_VERSION",
    "PAPER_CORPUS_SIZES",
    "SERVICES",
    "scale",
    "corpus_size",
    "get_corpus",
    "scenario_corpus",
    "dataset_stage",
    "CorpusCodec",
    "profile_corpus",
    "dataset_digest",
    "features_for",
    "ml16_features_for",
    "flow_features_for",
    "matrix_stage",
    "cv_predictions_for",
    "cv_report_for",
    "fit_predictions_for",
    "importances_for",
    "default_forest_config",
    "build_model",
    "default_forest",
    "format_table",
    "format_percent",
]

#: Session counts of the paper's evaluation corpora (§4.1).
PAPER_CORPUS_SIZES = {"svc1": 2111, "svc2": 2216, "svc3": 1440}

#: Evaluation order used throughout the paper.
SERVICES = ("svc1", "svc2", "svc3")

#: Seed base for corpus collection; per-service offsets keep corpora
#: independent.
_CORPUS_SEEDS = {"svc1": 101, "svc2": 202, "svc3": 303}


def scale() -> float:
    """The REPRO_SCALE knob (default 1.0), via the resolved config."""
    return get_config().scale


def corpus_size(service: str) -> int:
    """Paper corpus size for ``service``, scaled by REPRO_SCALE."""
    return max(60, int(round(PAPER_CORPUS_SIZES[service] * scale())))


# ----------------------------------------------------------------------
# Corpus artifacts


class CorpusCodec:
    """Corpora persist as their whole format-4 directory.

    ``save`` *moves* the corpus directory into the store (the build
    stages it under the same cache root, so the move is a rename) and
    re-roots the live stored :class:`~repro.collection.dataset.Dataset`
    at its committed location; ``load`` is just the manifest read.
    Entries that earlier in-memory builds wrote with ``Dataset.save``
    are the same kind of directory and load the same way.
    """

    extension = ".shards"
    load_errors = (OSError, DatasetFormatError)

    def save(self, value: Dataset, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            shutil.rmtree(path)
        shutil.move(str(value.root), str(path))
        value.root = path

    def load(self, path) -> Dataset:
        return Dataset.load(path)


CORPUS_CODEC = CorpusCodec()


def dataset_digest(dataset: Dataset) -> str | None:
    """The content digest feature/CV stages should chain from, if any.

    Corpora produced by :func:`get_corpus` / :func:`dataset_stage`
    carry their artifact digest; any other stored corpus carries its
    manifest digest (itself covering every shard's SHA-256).  Ad-hoc
    corpora held in memory (unit tests) return None and downstream
    helpers skip caching for them.
    """
    return dataset._artifact_digest or dataset.manifest_digest


def dataset_stage(
    stage: str,
    config: dict,
    build: Callable[[Path, int], Dataset],
) -> Dataset:
    """A corpus-valued artifact stage.

    On a miss, ``build(staging, shard_size)`` writes the corpus into a
    fresh staging directory, in shards of ``REPRO_SHARD_SIZE``, and
    returns the stored corpus; the store then keeps the directory
    (:class:`CorpusCodec`).  Staging sits under the cache root so that
    keeping it is a same-filesystem rename.  A build that raises has
    its staging directory removed.  Either way the caller
    gets the stored corpus, tagged with its digest.  The shard size
    joins ``config`` only when it is not the default, so default-size
    entries keep their keys.
    """
    shard_size = get_config().shard_size
    if shard_size != DEFAULT_SHARD_SIZE:
        config = {**config, "shard_size": shard_size}

    def staged_build() -> Dataset:
        cache_dir().mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(dir=cache_dir(), prefix=STAGING_PREFIX))
        try:
            return build(staging, shard_size)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise

    dataset, key = get_store().get_or_compute(
        stage, config, staged_build, codec=CORPUS_CODEC
    )
    dataset._artifact_digest = key
    return dataset


def get_corpus(
    service: str,
    n_sessions: int | None = None,
    seed: int | None = None,
    scenario: str | None = None,
) -> Dataset:
    """The evaluation corpus for one service — the ``corpus`` stage.

    ``n_sessions`` defaults to the paper's (scaled) corpus size and
    ``seed`` to the service's canonical collection seed.  The corpus is
    a stored :class:`~repro.collection.dataset.Dataset`
    (:func:`dataset_stage`): a warm run reads only its manifest.

    ``scenario`` (default: ``REPRO_SCENARIO``) collects the corpus
    over a network-impairment scenario.  The scenario name joins the
    stage fingerprint only when non-identity, so impaired and clean
    corpora cache side by side and existing identity cache entries
    stay valid.
    """
    if n_sessions is None:
        n_sessions = corpus_size(service)
    if seed is None:
        seed = _CORPUS_SEEDS[service]
    sc = resolve_scenario(
        scenario if scenario is not None else get_config().scenario
    )
    stage_config = {"service": service, "n_sessions": n_sessions, "seed": seed}
    if not sc.is_identity:
        stage_config["scenario"] = sc.name
    return dataset_stage(
        "corpus",
        stage_config,
        lambda out, shard_size: collect_corpus(
            service, n_sessions, seed=seed, config=CollectionConfig(scenario=sc),
            out=out, shard_size=shard_size,
        ),
    )


def scenario_corpus(
    service: str,
    scenario: str,
    n_sessions: int | None = None,
    seed: int | None = None,
) -> Dataset:
    """The evaluation corpus collected under a named scenario.

    A thin, explicit wrapper over :func:`get_corpus` for the robustness
    and policing drivers — same sizes, same seeds, different network.
    """
    return get_corpus(service, n_sessions=n_sessions, seed=seed, scenario=scenario)


def profile_corpus(
    variant: str, profile, n_sessions: int, seed: int
) -> Dataset:
    """A corpus collected on a non-standard service profile.

    Profiles hold callables, so they cannot be fingerprinted
    structurally; the caller names the variant instead and owns keeping
    that name honest (same contract as ``CACHE_VERSION``).
    """
    return dataset_stage(
        "corpus-variant",
        {"variant": variant, "n_sessions": n_sessions, "seed": seed},
        lambda out, shard_size: collect_corpus(
            profile, n_sessions, seed=seed, out=out, shard_size=shard_size
        ),
    )


# ----------------------------------------------------------------------
# Feature artifacts


def features_for(
    dataset: Dataset,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The TLS feature matrix of a corpus.

    A stored corpus goes through the fleet
    (:func:`repro.collection.fleet.extract_tls_sharded`): one
    ``tls-features-shard`` artifact per shard keyed by the shard's own
    SHA-256, probe-then-compute, so a warm run is all per-shard cache
    hits and peak memory stays bounded by the shard size.  A digest-less
    in-memory corpus computes directly.
    """
    if dataset_digest(dataset) is None:
        return extract_tls_matrix(dataset, intervals=intervals)
    return extract_tls_sharded(dataset, intervals=intervals)


def ml16_features_for(
    dataset: Dataset, seed: int = 0
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The ML16 packet-trace feature matrix — ``ml16-features`` stage."""
    from repro.features.packet_features import ML16_FEATURE_NAMES

    key = dataset_digest(dataset)
    if key is None:
        return extract_ml16_matrix(dataset, seed=seed)
    value, _ = get_store().get_or_compute(
        "ml16-features",
        {"seed": seed},
        lambda: {"X": extract_ml16_matrix(dataset, seed=seed)[0]},
        deps=(key,),
    )
    return value["X"], ML16_FEATURE_NAMES


def flow_features_for(dataset: Dataset, config=None) -> tuple[np.ndarray, tuple[str, ...]]:
    """The NetFlow feature matrix — ``flow-features`` stage."""
    import dataclasses

    from repro.netflow.features import FLOW_FEATURE_NAMES, extract_flow_matrix

    key = dataset_digest(dataset)
    if key is None:
        return extract_flow_matrix(dataset, config)
    exporter = dataclasses.asdict(config) if config is not None else "default"
    value, _ = get_store().get_or_compute(
        "flow-features",
        {"exporter": exporter},
        lambda: {"X": extract_flow_matrix(dataset, config)[0]},
        deps=(key,),
    )
    return value["X"], FLOW_FEATURE_NAMES


def matrix_stage(
    dataset: Dataset,
    stage: str,
    config: dict,
    build: Callable[[], dict[str, np.ndarray]],
) -> dict[str, np.ndarray]:
    """A driver-specific dict-of-arrays artifact derived from a corpus.

    For derived matrices the generic helpers do not cover (e.g. the
    partial-session prefix features).  ``config`` must uniquely
    describe the derivation given the corpus.
    """
    if dataset_digest(dataset) is None:
        return build()
    value, _ = get_store().get_or_compute(
        stage, config, build, deps=(dataset_digest(dataset),)
    )
    return value


# ----------------------------------------------------------------------
# Model configurations


def default_forest_config(
    n_estimators: int = 60, random_state: int = 0
) -> dict:
    """The paper's Random Forest, as a fingerprintable config dict."""
    return {
        "kind": "random_forest",
        "n_estimators": n_estimators,
        "min_samples_leaf": 2,
        "max_features": "sqrt",
        "random_state": random_state,
    }


def _build_forest(params: dict) -> RandomForestClassifier:
    return RandomForestClassifier(**params)


def _build_boosting(params: dict):
    from repro.ml.boosting import GradientBoostingClassifier

    return GradientBoostingClassifier(**params)


def _build_knn(params: dict):
    from repro.ml.knn import KNeighborsClassifier

    return KNeighborsClassifier(**params)


def _build_mlp(params: dict):
    from repro.ml.mlp import MLPClassifier

    params = dict(params)
    params["hidden_layer_sizes"] = tuple(params["hidden_layer_sizes"])
    return MLPClassifier(**params)


def _build_svc(params: dict):
    from repro.ml.svm import LinearSVC

    return LinearSVC(**params)


_MODEL_BUILDERS = {
    "random_forest": _build_forest,
    "gradient_boosting": _build_boosting,
    "knn": _build_knn,
    "mlp": _build_mlp,
    "linear_svc": _build_svc,
}


def build_model(config: dict):
    """Instantiate the estimator a model config describes."""
    params = dict(config)
    kind = params.pop("kind", None)
    builder = _MODEL_BUILDERS.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown model kind {kind!r} "
            f"(choose from {sorted(_MODEL_BUILDERS)})"
        )
    return builder(params)


def default_forest(random_state: int = 0) -> RandomForestClassifier:
    """The Random Forest configuration used across experiments."""
    return build_model(default_forest_config(random_state=random_state))


# ----------------------------------------------------------------------
# Cross-validation / prediction artifacts


def cv_predictions_for(
    dataset: Dataset,
    X: np.ndarray,
    y: np.ndarray,
    stage_config: dict,
    model_config: dict | None = None,
    n_splits: int = 5,
    random_state: int | None = 0,
    n_jobs: int | None = None,
) -> np.ndarray:
    """Out-of-fold predictions — the ``cv-predictions`` stage.

    ``stage_config`` must uniquely describe how ``(X, y)`` derive from
    the corpus (feature family, column subset, target, ...); the model
    config, fold count and fold seed are appended automatically.  The
    computation itself is :func:`~repro.ml.model_selection.cross_val_predict`
    (deterministic for any worker count), so a cached vector is
    bit-identical to a fresh one.
    """
    if model_config is None:
        model_config = default_forest_config()
    estimator = build_model(model_config)
    key = dataset_digest(dataset)
    if key is None:
        return cross_val_predict(
            estimator, X, y, n_splits=n_splits, random_state=random_state,
            n_jobs=n_jobs,
        )
    value, _ = get_store().get_or_compute(
        "cv-predictions",
        {
            "derivation": stage_config,
            "model": model_config,
            "n_splits": n_splits,
            "random_state": random_state,
        },
        lambda: {
            "y_pred": cross_val_predict(
                estimator, X, y, n_splits=n_splits,
                random_state=random_state, n_jobs=n_jobs,
            )
        },
        deps=(key,),
    )
    return value["y_pred"]


def cv_report_for(
    dataset: Dataset,
    X: np.ndarray,
    y: np.ndarray,
    stage_config: dict,
    model_config: dict | None = None,
    n_splits: int = 5,
    positive: int = 0,
    random_state: int | None = 0,
    n_jobs: int | None = None,
) -> EvalReport:
    """The paper's k-fold A/R/P evaluation over cached predictions."""
    y_pred = cv_predictions_for(
        dataset, X, y, stage_config, model_config=model_config,
        n_splits=n_splits, random_state=random_state, n_jobs=n_jobs,
    )
    n_classes = int(np.asarray(y).max()) + 1
    return evaluate_predictions(
        y, y_pred, positive=positive, n_classes=max(n_classes, 3)
    )


def fit_predictions_for(
    train: Dataset,
    test: Dataset,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    stage_config: dict,
    model_config: dict | None = None,
) -> np.ndarray:
    """Train-on-A / predict-on-B — the ``transfer-predictions`` stage."""
    if model_config is None:
        model_config = default_forest_config()

    def build() -> dict[str, np.ndarray]:
        model = build_model(model_config)
        model.fit(X_train, y_train)
        return {"y_pred": model.predict(X_test)}

    train_key = dataset_digest(train)
    test_key = dataset_digest(test)
    if train_key is None or test_key is None:
        return build()["y_pred"]
    value, _ = get_store().get_or_compute(
        "transfer-predictions",
        {"derivation": stage_config, "model": model_config},
        build,
        deps=(train_key, test_key),
    )
    return value["y_pred"]


def importances_for(
    dataset: Dataset,
    target: str = "combined",
    model_config: dict | None = None,
    method: str = "gini",
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> np.ndarray:
    """Forest feature importances — the ``importances`` stage.

    ``method`` selects Gini impurity decrease (what the paper's Random
    Forest reports) or permutation importance (a robustness
    cross-check; slower).
    """
    if model_config is None:
        model_config = default_forest_config()
    if method not in ("gini", "permutation"):
        raise ValueError(f"unknown importance method {method!r}")

    def build() -> dict[str, np.ndarray]:
        X, _ = features_for(dataset, intervals=intervals)
        y = dataset.labels(target)
        model = build_model(model_config).fit(X, y)
        if method == "gini":
            importances = model.feature_importances_
        else:
            from repro.ml.importance import permutation_importance

            importances = permutation_importance(model, X, y, n_repeats=3)
        return {"importances": np.asarray(importances, dtype=np.float64)}

    key = dataset_digest(dataset)
    if key is None:
        return build()["importances"]
    value, _ = get_store().get_or_compute(
        "importances",
        {
            "target": target,
            "model": model_config,
            "method": method,
            "intervals": intervals,
        },
        build,
        deps=(key,),
    )
    return value["importances"]


# ----------------------------------------------------------------------
# Report formatting


def format_percent(value: float) -> str:
    """``0.734`` → ``"73%"`` (paper tables use integer percent)."""
    if np.isnan(value):
        return "  -"
    return f"{round(100 * value):3d}%"


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Plain-text aligned table."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
