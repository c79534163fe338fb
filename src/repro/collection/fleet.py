"""Coordinator/worker shard fleet: collect, extract, score at scale.

The out-of-core counterpart of :mod:`repro.collection.harness`: a
coordinator process hands *shards* (not sessions) to a worker pool and
workers stream their results straight to disk, so corpus size never
bounds peak memory — only ``shard_size`` does.  The queue shape is the
broadcaster/receiver pattern: one task per shard submitted to
:func:`repro.parallel.parallel_dispatch`, workers pulling the next
shard as they free up.

Three task kinds, one shard each:

* **collect** — :func:`collect_corpus_sharded`: the worker simulates
  its shard's sessions (per-session ``SeedSequence.spawn`` streams, so
  the corpus is bit-identical for any worker count or shard size),
  writes the shard file itself, and returns only the manifest entry —
  no session payload ever crosses the queue.  The coordinator opens and
  commits the directory through the shard writer protocol
  (:func:`~repro.collection.shards.open_shard_dir`,
  :func:`~repro.collection.shards.commit_shard_dir`), so
  ``manifest.json`` lands last, in shard order.
* **extract** — :func:`extract_tls_sharded`: the coordinator first
  *probes* the artifact store for every shard's feature block
  (:meth:`~repro.artifacts.ArtifactStore.lookup`, counting hits); only
  the absent shards go to workers, which are pure compute — they load
  the shard from disk and return its matrix; the coordinator commits
  the results (counting misses).  Workers never touch the store, so
  process-local config overrides (tests pinning ``cache_dir``) cannot
  desynchronize the cache, and per-stage counters reconcile exactly:
  ``hits + misses == n_shards``.
* **score** — :func:`score_sharded`: extract + predict one shard per
  task, predictions concatenated in manifest order.

Every result is concatenated in manifest order and every per-session
computation is independent, so all three are bit-identical to their
monolithic counterparts for ``REPRO_JOBS=1`` and any other count.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.artifacts import get_store
from repro.collection.harness import (
    CollectionConfig,
    collect_records,
    plan_collection,
)
from repro.collection.shards import (
    ShardEntry,
    ShardedDataset,
    commit_shard_dir,
    decode_shard,
    manifest_payload,
    open_shard_dir,
    resolve_shard_size,
    write_shard,
)
from repro.features.tls_features import (
    TEMPORAL_INTERVALS,
    extract_tls_table,
    feature_names,
)
from repro.has.services import ServiceProfile
from repro.parallel import parallel_dispatch, resolve_jobs_for

__all__ = [
    "collect_corpus_sharded",
    "extract_tls_sharded",
    "score_sharded",
    "shard_bounds",
]


def shard_bounds(n_sessions: int, shard_size: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` session ranges of each shard, in shard order."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (lo, min(lo + shard_size, n_sessions))
        for lo in range(0, n_sessions, shard_size)
    ]


# ----------------------------------------------------------------------
# Collection


def _collect_shard(task) -> dict:
    """Worker: simulate one shard's sessions and write the shard file.

    Only the manifest entry returns over the queue; the sessions go
    straight to disk, which is what bounds coordinator memory.
    """
    profile, config, root, index, seeds = task
    records = collect_records(profile, config, seeds)
    entry = write_shard(root, index, profile.name, records)
    return entry.to_dict()


def collect_corpus_sharded(
    service: str | ServiceProfile,
    n_sessions: int,
    out,
    shard_size: int | None = None,
    seed: int = 0,
    config: CollectionConfig | None = None,
    n_jobs: int | None = None,
    workload=None,
) -> ShardedDataset:
    """Collect a corpus directly into a format-4 shard directory.

    The randomness contract matches
    :func:`~repro.collection.harness.collect_corpus` exactly: session
    ``i`` draws from ``SeedSequence(seed).spawn(n_sessions)[i]``
    regardless of shard size or worker count, so the sessions are
    bit-identical to a monolithic collection with the same seed.
    ``shard_size`` defaults to ``REPRO_SHARD_SIZE`` and then to 512
    (:func:`~repro.collection.shards.resolve_shard_size`).  Returns the lazy
    :class:`~repro.collection.shards.ShardedDataset` over ``out``.
    """
    plan = plan_collection(service, n_sessions, seed, config, n_jobs, workload)
    profile = plan.profile
    shard_size = resolve_shard_size(shard_size)
    root = open_shard_dir(out)
    with telemetry.span(
        "fleet.collect",
        service=profile.name,
        n_sessions=n_sessions,
        shard_size=shard_size,
        jobs=plan.jobs,
    ) as sp:
        tasks = [
            (profile, plan.config, root, index, plan.seeds[lo:hi])
            for index, (lo, hi) in enumerate(shard_bounds(n_sessions, shard_size))
        ]
        sp.set(shards=len(tasks))
        entries = parallel_dispatch(_collect_shard, tasks, n_jobs=plan.jobs)
        return commit_shard_dir(
            root,
            manifest_payload(
                profile.name,
                shard_size,
                [ShardEntry.from_dict(e) for e in entries],
                scenario=plan.config.scenario.name,
                workload=plan.config.workload.name,
            ),
        )


# ----------------------------------------------------------------------
# Extraction

#: Artifact stage for per-shard TLS feature blocks.
TLS_SHARD_STAGE = "tls-features-shard"


def _extract_shard(task) -> np.ndarray:
    """Worker: pure compute — load one shard, return its feature block.

    Deliberately touches no artifact store: the coordinator owns all
    cache reads and writes, so hit/miss counters and on-disk state
    stay consistent no matter where workers inherited their config.
    """
    path, intervals = task
    with np.load(path, allow_pickle=False) as z:
        shard = decode_shard({name: z[name] for name in z.files})
    return extract_tls_table(shard.tls_table(), intervals)


def extract_tls_sharded(
    dataset: ShardedDataset,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
    n_jobs: int | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """TLS feature matrix of a sharded corpus, one artifact per shard.

    Probe-then-compute: every shard's block is first looked up in the
    artifact store under (stage, intervals, shard digest) — a warm run
    is all hits and touches nothing but the manifest and the cache.
    Missing blocks are computed by pool workers (one shard per task,
    loaded from disk inside the worker) and committed by the
    coordinator, counting one miss each.  Rows are stacked in manifest
    order, so the matrix is bit-identical to
    :func:`~repro.features.tls_features.extract_tls_matrix` on the
    monolithic corpus for any worker count.
    """
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
            tasks = [
                (str(dataset.root / dataset.entries[i].name), intervals)
                for i in missing
            ]
            computed = parallel_dispatch(_extract_shard, tasks, n_jobs=n_jobs)
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
    model, path, intervals = task
    X = _extract_shard((path, intervals))
    return np.asarray(model.predict(X))


def score_sharded(
    model,
    dataset: ShardedDataset,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
    n_jobs: int | None = None,
) -> np.ndarray:
    """Model predictions over a sharded corpus, one shard per task.

    Workers extract and predict; the coordinator concatenates in
    manifest order.  Models predict row-independently, so the result
    equals predicting on the monolithic feature matrix.
    """
    jobs = resolve_jobs_for(model, n_jobs)
    with telemetry.span(
        "fleet.score", shards=dataset.n_shards, sessions=len(dataset)
    ):
        tasks = [
            (model, str(dataset.root / entry.name), intervals)
            for entry in dataset.entries
        ]
        parts = parallel_dispatch(_score_shard, tasks, n_jobs=jobs)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
