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
shard's SHA-256.  Every way of writing a corpus must reproduce it: the
collector with ``out=`` in both task shapes (one shard per task, written
by its worker, at ``REPRO_JOBS=1`` and ``2``; one chunk per worker, cut
into shards by the coordinator, at ``4``), and an in-memory collect
saved with ``Dataset.save`` — extending the worker-count-invariance
contract to the golden bytes.
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


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_format4_identity_digests_match_golden(tmp_path, n_jobs):
    # 10 sessions in shards of 4: per-shard tasks at jobs 1 and 2
    # (10 >= jobs * 4), chunk tasks at jobs 4.
    assert_golden(
        collect_corpus(
            SERVICE,
            N_SESSIONS,
            seed=SEED,
            n_jobs=n_jobs,
            out=tmp_path / "shards",
            shard_size=SHARD_SIZE,
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
    # The "has" profiles must reproduce the pre-registry corpus byte for
    # byte, with the workload named through the facade or not — same
    # RNG draw order, no serialized ``workload`` key.
    from repro.api import collect_corpus as api_collect

    explicit = api_collect(SERVICE, n_sessions=N_SESSIONS, seed=SEED, workload="has")
    saved = explicit.save(tmp_path / "explicit.shards", shard_size=SHARD_SIZE)
    assert saved.manifest_digest == GOLDEN_MANIFEST_DIGEST, (
        "explicit workload='has' perturbed the golden corpus bytes"
    )


# ----------------------------------------------------------------------
# One golden per collection path
# ----------------------------------------------------------------------
#: Format-4 manifest digests of a small corpus on every collection
#: path: each registered workload x profile over identity, each
#: registered scenario over svc1, and svc2 and rtc1 over hostile.
#: Pinned on commit 978e263, before the simulator's scalar hot path, so
#: any arithmetic reorder or moved generator draw in the trace, link,
#: TCP, impairment, pool, HAS, live or RTC code fails here.  rtc1 over
#: hostile (5 of its 12 sessions policed) was pinned on commit e0fd946,
#: before the HAS and RTC simulators shared one session shell, so the
#: RTC simulator's ``path.*`` counters and ``policed`` flag have a byte
#: check too.
PATH_SESSIONS = 12
PATH_SEED = 19
PATH_SHARD_SIZE = 5
GOLDEN_PATH_DIGESTS = {
    ("has", "svc1", "identity"): "bc65d45ec12d4098c84ea66f",
    ("has", "svc2", "identity"): "e681f44fd4e2f80291cba533",
    ("has", "svc3", "identity"): "f7246fd9b9a5e218c6a1c9f9",
    ("live", "live1", "identity"): "be88577800e37d130685444f",
    ("live", "live2", "identity"): "dba78f3945843237644c3c13",
    ("live", "live3", "identity"): "b3976ab8f5e0740a0756b872",
    ("rtc", "rtc1", "identity"): "5f64224c0f40dab7989025f6",
    ("has", "svc1", "bufferbloat-1mb"): "72f0bc2af84d7400921812c4",
    ("has", "svc1", "droplist-early"): "8e5eae0328a1bdb778821fcf",
    ("has", "svc1", "hostile"): "64c3a8dcf6325cdfbb40c582",
    ("has", "svc1", "policed-2mbps"): "62eaee8ddaf0942e965597de",
    ("has", "svc1", "policed-512kbps"): "4f69f95b91980addc850e453",
    ("has", "svc1", "reorder-50ms"): "8b1242f0270c4b94e920210b",
    ("has", "svc1", "shaped-2mbps"): "4f16c2a5028542c765f95cc8",
    ("has", "svc2", "hostile"): "b23c3c570ec980e2349f3c3f",
    ("rtc", "rtc1", "hostile"): "a0e0bda3988a4954d6f5bc42",
}


def test_path_goldens_cover_every_registered_path():
    # A newly registered profile or scenario needs its own golden.
    from repro.api import list_scenarios, list_workloads

    profiles = {
        (wl["name"], profile)
        for wl in list_workloads()
        for profile in wl["profiles"]
    }
    scenarios = {sc["name"] for sc in list_scenarios()}
    pinned = set(GOLDEN_PATH_DIGESTS)
    assert {(w, p) for w, p, sc in pinned if sc == "identity"} == profiles
    assert {sc for w, p, sc in pinned if (w, p) == ("has", "svc1")} == scenarios


# 12 sessions in shards of 5: per-shard tasks at jobs 1 and 2, chunk
# tasks at jobs 3 (12 < 3 * 5).
@pytest.mark.parametrize("n_jobs", [1, 2, 3])
@pytest.mark.parametrize(
    "workload,service,scenario",
    sorted(GOLDEN_PATH_DIGESTS),
    ids=lambda v: str(v),
)
def test_collection_path_matches_golden(tmp_path, workload, service, scenario, n_jobs):
    from repro.api import collect_corpus as api_collect

    sharded = api_collect(
        service,
        n_sessions=PATH_SESSIONS,
        seed=PATH_SEED,
        workload=workload,
        scenario=scenario,
        jobs=n_jobs,
        out=str(tmp_path / "path.shards"),
        shard_size=PATH_SHARD_SIZE,
    )
    assert sharded.manifest_digest == GOLDEN_PATH_DIGESTS[
        (workload, service, scenario)
    ], f"{workload}/{service} over {scenario}: corpus bytes changed"


# ----------------------------------------------------------------------
# A profile name is the whole choice of application model
# ----------------------------------------------------------------------
#: Format-4 manifest digest and shard SHA-256 prefix of 16 sessions at
#: seed 5 (one shard), collected through the facade with the workload
#: named explicitly, pinned on commit 26025c9, before a profile name
#: chose its own workload.  The profile's workload is read off the
#: profile, so the same bytes come back with ``workload=`` given or
#: omitted, and from the CLI given only ``--service``.
PROFILE_SESSIONS = 16
PROFILE_SEED = 5
PROFILE_WORKLOADS = {"svc1": "has", "live1": "live", "rtc1": "rtc"}
GOLDEN_PROFILE_DIGESTS = {
    ("svc1", "identity"): ("0fb8a0d4fffcc61dc69aae86", "305c0d023489908a"),
    ("live1", "identity"): ("b7869046031551c67b4ae05c", "45fdaa57f589b8e0"),
    ("rtc1", "identity"): ("67cccadd5fd093b413481f10", "f16352a9761c33e4"),
    ("svc1", "hostile"): ("14c97c793dac3131cbd239af", "919d5ff2be8237c1"),
}


@pytest.mark.parametrize("name_workload", [True, False], ids=["given", "omitted"])
@pytest.mark.parametrize(
    "service,scenario", sorted(GOLDEN_PROFILE_DIGESTS), ids=lambda v: str(v)
)
def test_profile_name_collects_its_workload(tmp_path, service, scenario, name_workload):
    from repro.api import collect_corpus as api_collect

    workload = PROFILE_WORKLOADS[service]
    sharded = api_collect(
        service,
        n_sessions=PROFILE_SESSIONS,
        seed=PROFILE_SEED,
        scenario=scenario,
        jobs=1,
        out=str(tmp_path / "profile.shards"),
        **({"workload": workload} if name_workload else {}),
    )
    manifest, shard = GOLDEN_PROFILE_DIGESTS[(service, scenario)]
    assert (sharded.workload, sharded.scenario) == (workload, scenario)
    assert sharded.manifest_digest == manifest, f"{service} over {scenario}"
    assert [entry.sha256[:16] for entry in sharded.entries] == [shard]


def test_cli_collect_without_workload_flag(tmp_path, capsys):
    from repro.cli import main
    from repro.collection.dataset import Dataset

    out = tmp_path / "rtc.shards"
    argv = ["collect", "--service", "rtc1", "-n", str(PROFILE_SESSIONS),
            "--seed", str(PROFILE_SEED), "-o", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        f"collected 16 rtc1 sessions (rtc workload) -> {out} (1 shards of <= 512) "
        "(combined QoE: 31%/56%/12% low/med/high)\n"
    )
    manifest, _ = GOLDEN_PROFILE_DIGESTS[("rtc1", "identity")]
    assert Dataset.load(out).manifest_digest == manifest
