"""Golden-digest equivalence: the identity scenario is bit-identical
to the pre-refactor pipeline.

These digests were pinned on the commit *before* the impairment-
pipeline refactor (svc1, 10 sessions, seed=7).  They freeze the whole
stack below the serialization boundary — bandwidth traces, TCP model,
HAS player, QoE labels, corpus encoding — so any accidental
perturbation of the clean path (a reordered RNG draw, a new serialized
field, a changed default) fails here with a digest mismatch rather
than silently invalidating every cached corpus.

The pin is the format-4 manifest digest, which itself covers every
shard's SHA-256.  Both writers must reproduce it — the shard fleet and
an in-memory collect saved with ``Dataset.save`` — at ``REPRO_JOBS=1``
and ``4``, extending the worker-count-invariance contract to the
golden bytes.
"""

import pytest

from repro.collection.harness import collect_corpus

SERVICE = "svc1"
N_SESSIONS = 10
SEED = 7
SHARD_SIZE = 4

#: Format-4 manifest digest (covers shard count, sizes, and shard
#: SHA-256s) and the per-shard digest prefixes, pre-refactor.
GOLDEN_MANIFEST_DIGEST = "5f72411e80a4d2175c11778f"
GOLDEN_SHARD_PREFIXES = (
    "b3eb34bbe9a12a28",
    "1ac41344b1e53656",
    "95e3207837c6cca8",
)


def assert_golden(sharded) -> None:
    assert sharded.manifest_digest == GOLDEN_MANIFEST_DIGEST, (
        "identity corpus bytes changed: the refactor perturbed the "
        "clean pipeline"
    )
    prefixes = tuple(entry.sha256[:16] for entry in sharded.entries)
    assert prefixes == GOLDEN_SHARD_PREFIXES


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_in_memory_save_matches_golden(tmp_path, n_jobs):
    dataset = collect_corpus(SERVICE, N_SESSIONS, seed=SEED, n_jobs=n_jobs)
    assert_golden(dataset.save(tmp_path / "golden.shards", shard_size=SHARD_SIZE))


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_format4_identity_digests_match_golden(tmp_path, n_jobs):
    from repro.collection.fleet import collect_corpus_sharded

    assert_golden(
        collect_corpus_sharded(
            SERVICE,
            N_SESSIONS,
            tmp_path / "shards",
            shard_size=SHARD_SIZE,
            seed=SEED,
            n_jobs=n_jobs,
        )
    )


def test_explicit_identity_config_matches_default(tmp_path):
    # CollectionConfig(scenario="identity") and scenario=None must build
    # the very same corpus: resolution cannot perturb a byte.
    from repro.collection.harness import CollectionConfig

    default = collect_corpus(SERVICE, N_SESSIONS, seed=SEED)
    explicit = collect_corpus(
        SERVICE,
        N_SESSIONS,
        seed=SEED,
        config=CollectionConfig(scenario="identity"),
    )
    a = default.save(tmp_path / "a.shards", shard_size=SHARD_SIZE)
    b = explicit.save(tmp_path / "b.shards", shard_size=SHARD_SIZE)
    assert a.manifest_digest == b.manifest_digest


def test_explicit_has_workload_matches_golden(tmp_path):
    # The workload registry's default ("has") path must reproduce the
    # pre-registry corpus byte for byte, whether resolved implicitly or
    # requested explicitly — same RNG draw order, no serialized
    # ``workload`` key.
    from repro.collection.harness import CollectionConfig

    explicit = collect_corpus(
        SERVICE,
        N_SESSIONS,
        seed=SEED,
        config=CollectionConfig(workload="has"),
    )
    saved = explicit.save(tmp_path / "explicit.shards", shard_size=SHARD_SIZE)
    assert saved.manifest_digest == GOLDEN_MANIFEST_DIGEST, (
        "explicit workload='has' perturbed the golden corpus bytes"
    )
