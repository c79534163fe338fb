"""Coordinator/worker shard fleet: extract, score and flow at scale.

The out-of-core readers of a format-4 corpus: a coordinator process
hands *shards* (not sessions) to a worker pool, one pool task per shard
(:func:`repro.parallel.parallel_map`), workers
pulling the next shard as they free up, so corpus size never bounds
peak memory — only ``shard_size`` does.  A task carries the shard's
:class:`~repro.collection.shards.ShardReader` (its path and manifest
entry), and the worker reads only the npz members it uses, checked
against the manifest like every other read.  The collector
(:func:`repro.collection.harness.collect_corpus` with ``out=``) hands
out whole shards the same way when the corpus has at least one per
worker.

Three task kinds, one shard each:

* **extract** — :func:`extract_tls_sharded`: the coordinator first
  *probes* the artifact store for every shard's feature block
  (:meth:`~repro.artifacts.ArtifactStore.lookup`, counting hits); only
  the absent shards go to workers, which are pure compute — they read
  the shard's TLS members and return its matrix; the coordinator
  commits the results (counting misses).  Workers never touch the
  store, so process-local config overrides (tests pinning
  ``cache_dir``) cannot desynchronize the cache, and per-stage counters
  reconcile exactly: ``hits + misses == n_shards``.
* **score** — :func:`score_sharded`: extract + predict one shard per
  task, predictions concatenated in manifest order.
* **flow** — :func:`~repro.netflow.features.extract_flow_matrix`:
  export and featurize one shard's transfer members per task.

Every result is concatenated in manifest order and every per-session
computation is independent, so each is bit-identical to its in-memory
counterpart for ``REPRO_JOBS=1`` and any other count.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.artifacts import get_store
from repro.collection.dataset import Dataset
from repro.collection.shards import ShardReader
from repro.features.tls_features import (
    TEMPORAL_INTERVALS,
    extract_tls_table,
    feature_names,
)
from repro.parallel import parallel_map, resolve_jobs_for

__all__ = [
    "extract_tls_sharded",
    "score_sharded",
]


# ----------------------------------------------------------------------
# Extraction

#: Artifact stage for per-shard TLS feature blocks.
TLS_SHARD_STAGE = "tls-features-shard"


def _extract_shard(task: tuple[ShardReader, tuple[int, ...]]) -> np.ndarray:
    """Worker: pure compute — one shard's feature block, from its TLS
    members alone (no records, no SNI column).

    Deliberately touches no artifact store: the coordinator owns all
    cache reads and writes, so hit/miss counters and on-disk state
    stay consistent no matter where workers inherited their config.
    """
    reader, intervals = task
    return extract_tls_table(reader.tls_table(sni=False), intervals)


def extract_tls_sharded(
    dataset: Dataset,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
    n_jobs: int | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """TLS feature matrix of a sharded corpus, one artifact per shard.

    Probe-then-compute: every shard's block is first looked up in the
    artifact store under (stage, intervals, shard digest) — a warm run
    is all hits and touches nothing but the manifest and the cache.
    Missing blocks are computed by pool workers (one shard per task,
    its TLS members read inside the worker) and committed by the
    coordinator, counting one miss each.  Rows are stacked in manifest
    order, so the matrix is bit-identical to
    :func:`~repro.features.tls_features.extract_tls_matrix` on the
    same corpus for any worker count.  A corpus held in memory stores
    no shard digests to key artifacts on and raises ``ValueError``.
    """
    if not all(entry.sha256 for entry in dataset.entries):
        raise ValueError(
            f"extract_tls_sharded keys its cache on stored shard digests, and the "
            f"{dataset.service} corpus is held in memory (extract_tls_matrix reads it)"
        )
    names = feature_names(intervals)
    store = get_store()
    stage_config = {"intervals": list(intervals)}
    with telemetry.span(
        "fleet.extract", shards=dataset.n_shards, sessions=len(dataset)
    ) as sp:
        blocks: list[np.ndarray | None] = []
        missing: list[int] = []
        deps_of = [
            (f"shard:{entry.sha256}",) for entry in dataset.entries
        ]
        for i, deps in enumerate(deps_of):
            value, _ = store.lookup(TLS_SHARD_STAGE, stage_config, deps=deps)
            if value is None:
                blocks.append(None)
                missing.append(i)
            else:
                blocks.append(value["X"])
        sp.set(cached=dataset.n_shards - len(missing), computed=len(missing))
        if missing:
            readers = dataset.block_readers()
            tasks = [(readers[i], intervals) for i in missing]
            computed = parallel_map(_extract_shard, tasks, n_jobs=n_jobs)
            for i, X in zip(missing, computed):
                value, _ = store.get_or_compute(
                    TLS_SHARD_STAGE,
                    stage_config,
                    build=lambda X=X: {"X": X},
                    deps=deps_of[i],
                )
                blocks[i] = value["X"]
        matrix = (
            np.vstack([b for b in blocks if b is not None and b.shape[0]])
            if any(b is not None and b.shape[0] for b in blocks)
            else np.empty((0, len(names)))
        )
    return matrix, names


# ----------------------------------------------------------------------
# Scoring


def _score_shard(task) -> np.ndarray:
    """Worker: extract one shard's features and run the model on them."""
    model, reader, intervals = task
    X = _extract_shard((reader, intervals))
    return np.asarray(model.predict(X))


def score_sharded(
    model,
    dataset: Dataset,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
    n_jobs: int | None = None,
) -> np.ndarray:
    """Model predictions over a sharded corpus, one shard per task.

    Workers extract and predict; the coordinator concatenates in
    manifest order.  Models predict row-independently, so the result
    equals predicting on the whole corpus's feature matrix.
    """
    jobs = resolve_jobs_for(model, n_jobs)
    with telemetry.span(
        "fleet.score", shards=dataset.n_shards, sessions=len(dataset)
    ):
        tasks = [(model, reader, intervals) for reader in dataset.block_readers()]
        parts = parallel_map(_score_shard, tasks, n_jobs=jobs)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
