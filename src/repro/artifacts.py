"""Content-addressed, atomic, on-disk artifact store.

Every expensive pipeline stage — corpus collection, feature
extraction, cross-validation predictions — produces an *artifact*: a
value that is a pure function of (stage name, upstream artifacts,
configuration, :data:`CACHE_VERSION`).  This module stores those
values on disk under ``REPRO_CACHE_DIR`` (default ``.cache/`` in the
working directory), keyed by a structured fingerprint, with an
in-process LRU in front so repeated lookups inside one run never touch
the filesystem.

Layout::

    $REPRO_CACHE_DIR/
        artifacts/<stage>/<digest><ext>        # payload (codec-specific)
        artifacts/<stage>/<digest>.meta.json   # full fingerprint (commit record)

The *digest* is a SHA-256 prefix of the canonical-JSON fingerprint, so
equal computations collide onto the same entry across processes and
machines.  Writes are atomic (temp file + ``os.replace``, the
``Dataset.save`` pattern): the payload lands first and the meta file
second, so a reader never observes a committed entry with a torn
payload.  On read the stored fingerprint is compared structurally to
the expected one — a mismatch (hash-prefix collision, stale schema) or
any decode failure silently falls back to recomputation; a cache can
be corrupted or deleted at any time without breaking callers.

Invalidation is by :data:`CACHE_VERSION`, which participates in every
fingerprint: bump it whenever simulator or feature semantics change
and every stale entry misses.

The store counts ``memory_hits`` / ``hits`` (disk) / ``misses`` per
stage; benchmarks and the warm-cache CI smoke test assert on those
counters rather than guessing from wall time.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro import telemetry
from repro.config import CACHE_DIR_ENV_VAR, get_config

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_VERSION",
    "MAX_MEMORY_ITEMS",
    "STAGING_PREFIX",
    "ArraysCodec",
    "ArtifactStore",
    "cache_dir",
    "canonical_json",
    "digest",
    "fingerprint",
    "get_store",
]

#: Global cache-invalidation knob: participates in every fingerprint.
#: Bump when simulator, feature, or model semantics change so that
#: every stale artifact misses.  v4: per-session ``SeedSequence.spawn``
#: RNG streams (parallel collection).  v5: histogram growth is the only
#: tree grower.
CACHE_VERSION = 5

#: Name prefix of the directory a corpus build writes into, under the
#: cache root, before the store keeps it
#: (:func:`repro.experiments.common.dataset_stage`).  A build killed
#: before that leaves the directory behind.
STAGING_PREFIX = ".corpus-staging-"

#: Artifact values an :class:`ArtifactStore` keeps in its in-process
#: LRU; eviction drops only the memory copy.
MAX_MEMORY_ITEMS = 64


def _tree_bytes(path: Path) -> int:
    """Bytes of a file, or of every file under a directory."""
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def cache_dir() -> Path:
    """The configured cache root (not created until first write).

    Resolved through :func:`repro.config.get_config`, so tests point
    the store (and ``cache info``/``cache clear``) at a tmpdir with
    ``repro.config.override(cache_dir=...)`` — no env monkeypatching.
    """
    return get_config().cache_dir


# ----------------------------------------------------------------------
# Fingerprints


def _jsonify(value: Any) -> Any:
    """Coerce a config value into canonical JSON-safe types.

    Tuples become lists, numpy scalars become Python scalars, dicts
    must have string keys.  Anything else (functions, arrays, objects)
    is rejected: fingerprints must be explicit, structured data.
    """
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"fingerprint dict keys must be str, got {k!r}")
            out[k] = _jsonify(v)
        return out
    raise TypeError(f"value {value!r} cannot participate in a fingerprint")


def fingerprint(stage: str, config: dict, deps: tuple[str, ...] = ()) -> dict:
    """The structured identity of one artifact.

    ``stage`` names the pipeline stage, ``config`` is its parameter
    dict (JSON-safe after coercion), ``deps`` are the digests of
    upstream artifacts this one was computed from.
    """
    if not stage or "/" in stage:
        raise ValueError(f"invalid stage name {stage!r}")
    return {
        "stage": stage,
        "cache_version": CACHE_VERSION,
        "config": _jsonify(config),
        "deps": list(deps),
    }


def canonical_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(fp: dict) -> str:
    """Content address of a fingerprint (SHA-256 prefix, 24 hex chars)."""
    return hashlib.sha256(canonical_json(fp).encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# Codecs


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ArraysCodec:
    """Payloads that are a dict of numpy arrays (``.npz``, no pickle).

    Covers feature matrices, prediction vectors, importances, feature
    names (as unicode arrays) — everything except corpora, which have
    their own on-disk format (:class:`~repro.collection.dataset.Dataset`).
    """

    extension = ".npz"
    #: Decode failures that mean "corrupted entry", not "bug".
    load_errors = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)

    def save(self, value: dict[str, np.ndarray], path: Path) -> None:
        import io

        buffer = io.BytesIO()
        np.savez(buffer, **{k: np.asarray(v) for k, v in value.items()})
        atomic_write_bytes(path, buffer.getvalue())

    def load(self, path: Path) -> dict[str, np.ndarray]:
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}


ARRAYS = ArraysCodec()


# ----------------------------------------------------------------------
# The store


@dataclass
class StageCounters:
    """Hit/miss accounting for one stage."""

    memory_hits: int = 0
    hits: int = 0
    misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "hits": self.hits,
            "misses": self.misses,
        }


@dataclass
class ArtifactStore:
    """One cache root: disk entries plus an in-process LRU.

    The LRU holds the :data:`MAX_MEMORY_ITEMS` most recently used
    artifact *values* (corpora, matrices) keyed by digest, so one
    process never deserializes the same artifact twice; eviction only
    drops the memory copy — the disk entry stays.
    """

    root: Path
    _memory: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _counters: dict[str, StageCounters] = field(default_factory=dict, repr=False)

    # -- accounting ----------------------------------------------------
    def _stage_counters(self, stage: str) -> StageCounters:
        counters = self._counters.get(stage)
        if counters is None:
            counters = self._counters[stage] = StageCounters()
        return counters

    def counter_snapshot(self) -> dict:
        """Totals plus the per-stage hit/miss breakdown."""
        stages = {name: c.as_dict() for name, c in sorted(self._counters.items())}
        totals = {
            key: sum(c[key] for c in stages.values())
            for key in ("memory_hits", "hits", "misses")
        }
        totals["stages"] = stages
        return totals

    def reset_counters(self) -> None:
        self._counters.clear()

    # -- memory layer --------------------------------------------------
    def clear_memory(self) -> None:
        self._memory.clear()

    def _memory_get(self, key: str) -> Any:
        if key in self._memory:
            self._memory.move_to_end(key)
            return self._memory[key]
        return None

    def _memory_put(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > MAX_MEMORY_ITEMS:
            self._memory.popitem(last=False)

    # -- disk layer ----------------------------------------------------
    def stage_dir(self, stage: str) -> Path:
        return self.root / "artifacts" / stage

    def payload_path(self, stage: str, key: str, codec=ARRAYS) -> Path:
        return self.stage_dir(stage) / f"{key}{codec.extension}"

    def meta_path(self, stage: str, key: str) -> Path:
        return self.stage_dir(stage) / f"{key}.meta.json"

    def _disk_get(self, stage: str, key: str, fp: dict, codec) -> Any:
        """The committed value for ``key``, or None.

        An entry counts only when its meta file parses *and* its stored
        fingerprint equals the expected one structurally; any decode
        failure of meta or payload means corrupted/stale and reads as a
        miss (the caller recomputes and overwrites).
        """
        meta_path = self.meta_path(stage, key)
        payload_path = self.payload_path(stage, key, codec)
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            return None
        if meta.get("fingerprint") != fp:
            return None
        try:
            return codec.load(payload_path)
        except codec.load_errors:
            return None

    def write(self, stage: str, key: str, fp: dict, value: Any, codec=ARRAYS) -> None:
        """Commit ``value`` under ``key``: payload first, meta second."""
        codec.save(value, self.payload_path(stage, key, codec))
        meta = {"fingerprint": fp, "extension": codec.extension}
        atomic_write_bytes(
            self.meta_path(stage, key), canonical_json(meta).encode()
        )

    # -- the one entry point -------------------------------------------
    def get_or_compute(
        self,
        stage: str,
        config: dict,
        build: Callable[[], Any],
        deps: tuple[str, ...] = (),
        codec=ARRAYS,
    ) -> tuple[Any, str]:
        """The artifact for (stage, config, deps), computing on miss.

        Returns ``(value, digest)`` — the digest is what downstream
        stages put in their ``deps``.  ``build`` runs only on a miss;
        its result is committed to disk and to the memory LRU.
        """
        fp = fingerprint(stage, config, deps)
        key = digest(fp)
        counters = self._stage_counters(stage)
        with telemetry.span("artifact", stage=stage) as sp:
            value = self._memory_get(key)
            if value is not None:
                counters.memory_hits += 1
                telemetry.count(f"cache.{stage}.memory_hit")
                sp.set(outcome="memory_hit")
                return value, key
            value = self._disk_get(stage, key, fp, codec)
            if value is not None:
                counters.hits += 1
                telemetry.count(f"cache.{stage}.hit")
                sp.set(outcome="hit")
                self._memory_put(key, value)
                return value, key
            counters.misses += 1
            telemetry.count(f"cache.{stage}.miss")
            sp.set(outcome="miss")
            value = build()
            self.write(stage, key, fp, value, codec)
            self._memory_put(key, value)
            return value, key

    def lookup(
        self,
        stage: str,
        config: dict,
        deps: tuple[str, ...] = (),
        codec=ARRAYS,
    ) -> tuple[Any, str]:
        """Probe for an artifact without computing it.

        Returns ``(value, digest)`` on a hit and ``(None, digest)``
        otherwise.  Hits count exactly like :meth:`get_or_compute`
        hits, but a probe miss is *not* counted: the coordinator/worker
        fleet probes every shard first, farms the absent ones out to
        workers, and commits the results through
        :meth:`get_or_compute` — which is where the miss is recorded,
        once, so the counters reconcile (hits + misses == shards).
        """
        fp = fingerprint(stage, config, deps)
        key = digest(fp)
        counters = self._stage_counters(stage)
        value = self._memory_get(key)
        if value is not None:
            counters.memory_hits += 1
            telemetry.count(f"cache.{stage}.memory_hit")
            return value, key
        value = self._disk_get(stage, key, fp, codec)
        if value is not None:
            counters.hits += 1
            telemetry.count(f"cache.{stage}.hit")
            self._memory_put(key, value)
            return value, key
        return None, key

    # -- maintenance ---------------------------------------------------
    def iter_entries(self) -> Iterator[tuple[str, Path]]:
        """Yield ``(stage, payload_path)`` for every committed entry."""
        base = self.root / "artifacts"
        if not base.is_dir():
            return
        for stage_dir in sorted(p for p in base.iterdir() if p.is_dir()):
            for meta in sorted(stage_dir.glob("*.meta.json")):
                try:
                    extension = json.loads(meta.read_text()).get("extension", "")
                except (OSError, ValueError):
                    continue
                payload = meta.with_name(
                    meta.name[: -len(".meta.json")] + extension
                )
                if payload.exists():
                    yield stage_dir.name, payload

    def staging_dirs(self) -> list[Path]:
        """Corpus staging directories under the root: a running build's,
        or one a killed build left."""
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.glob(STAGING_PREFIX + "*") if p.is_dir())

    def stats(self) -> dict:
        """Per-stage entry counts and byte totals, and the staging
        directories' count and bytes (for ``cache info``)."""
        stages: dict[str, dict[str, int]] = {}
        for stage, payload in self.iter_entries():
            entry = stages.setdefault(stage, {"entries": 0, "bytes": 0})
            entry["entries"] += 1
            entry["bytes"] += _tree_bytes(payload)
        staging = self.staging_dirs()
        return {
            "root": str(self.root),
            "entries": sum(s["entries"] for s in stages.values()),
            "bytes": sum(s["bytes"] for s in stages.values()),
            "stages": stages,
            "staging": {
                "dirs": len(staging),
                "bytes": sum(_tree_bytes(p) for p in staging),
            },
        }

    def clear(self) -> int:
        """Delete every artifact entry (payloads + metas) and every
        staging directory; leave foreign content alone.  Returns files
        removed, the staging directories' files included."""
        removed = 0
        for staging in self.staging_dirs():
            files = sum(1 for p in staging.rglob("*") if p.is_file())
            try:
                shutil.rmtree(staging)
                removed += files
            except OSError:
                pass
        base = self.root / "artifacts"
        if not base.is_dir():
            return removed
        for stage_dir in base.iterdir():
            if not stage_dir.is_dir():
                continue
            for path in stage_dir.iterdir():
                try:
                    if path.is_dir():
                        # Directory payloads (sharded corpora).
                        shutil.rmtree(path)
                    else:
                        path.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                stage_dir.rmdir()
            except OSError:
                pass
        self.clear_memory()
        return removed


# ----------------------------------------------------------------------
# Per-root singletons

_STORES: dict[Path, ArtifactStore] = {}


def get_store() -> ArtifactStore:
    """The store for the current ``REPRO_CACHE_DIR``.

    One store (and hence one memory LRU + counter set) per cache root;
    tests that point ``REPRO_CACHE_DIR`` elsewhere get a fresh store
    while the default root keeps its warm memory cache.
    """
    root = cache_dir()
    store = _STORES.get(root)
    if store is None:
        store = _STORES[root] = ArtifactStore(root=root)
    return store
