"""Session-collection harness (paper §4.1).

Streams sessions under emulated network conditions: each session draws
a bandwidth trace from the FCC/3G/LTE mixture, a title from the
service's catalog, a watch duration from 10-1200 seconds, and
per-connection path parameters (RTT, loss), then runs the player
simulator and packs the result into a :class:`SessionRecord`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.collection.dataset import Dataset, SessionRecord
from repro.collection.shards import (
    ShardEntry,
    ShardReader,
    commit_shard_dir,
    held_block,
    manifest_payload,
    open_shard_dir,
    resolve_shard_size,
    shard_bounds,
    write_shard,
    write_shards,
)
from repro.has.player import PlayerSession, SessionTrace
from repro.has.services import ServiceProfile
from repro.has.video import Video
from repro.config import get_config
from repro.net.bandwidth import BandwidthTrace, TraceFamily, generate_trace
from repro.net.scenarios import Scenario, resolve_scenario
from repro.net.tcp import TcpParams
from repro.parallel import parallel_map, resolve_jobs_for

if TYPE_CHECKING:
    from repro.workloads import Workload

__all__ = [
    "CollectionConfig",
    "CollectionPlan",
    "default_tcp_params",
    "plan_collection",
    "resolve_collection_scenario",
    "resolve_collection_workload",
    "collect_session",
    "collect_records",
    "collect_corpus",
]


#: Log-space parameters of :func:`default_tcp_params`, computed once.
_LOG_RTT_MEDIAN_S = np.log(0.045)
_LOG_LOSS_RANGE = (np.log(1e-4), np.log(2e-2))


def default_tcp_params(rng: np.random.Generator) -> TcpParams:
    """Draw path parameters for one connection.

    RTTs are log-normal around ~45 ms (CDN edges are close, but
    cellular tails are long); loss rates are log-uniform between 0.01%
    and 2%, covering clean broadband through congested cellular.
    """
    rtt = min(max(float(np.exp(rng.normal(_LOG_RTT_MEDIAN_S, 0.4))), 0.01), 0.4)
    loss = float(np.exp(rng.uniform(*_LOG_LOSS_RANGE)))
    return TcpParams(rtt_s=rtt, loss_rate=loss)


@dataclass(frozen=True)
class CollectionConfig:
    """Knobs of the collection campaign.

    Defaults reproduce the paper's setup: watch durations spanning
    10-1200 s (log-uniform, so the Figure-3b duration buckets are all
    populated) and the FCC/3G/LTE trace mixture.

    ``scenario`` names the network-impairment scenario every session
    streams over; ``None`` inherits ``REPRO_SCENARIO`` (resolved at
    collection time and pinned into the config before worker dispatch,
    so pool workers never re-read the coordinator's environment).

    ``workload`` names the application model sessions run
    (:mod:`repro.workloads`); ``None`` inherits ``REPRO_WORKLOAD`` and
    is pinned the same way.  The default resolves to ``has``, which
    reproduces the pre-registry pipeline bit for bit.
    """

    min_watch_s: float = 30.0
    max_watch_s: float = 1200.0
    trace_weights: dict[TraceFamily, float] = field(
        default_factory=lambda: {
            TraceFamily.FCC: 0.30,
            TraceFamily.HSDPA_3G: 0.40,
            TraceFamily.LTE: 0.30,
        }
    )
    catalog_seed: int = 0
    scenario: str | Scenario | None = None
    workload: str | Workload | None = None

    def __post_init__(self) -> None:
        if not 0 < self.min_watch_s <= self.max_watch_s:
            raise ValueError("invalid watch-duration range")
        if not self.trace_weights:
            raise ValueError("trace mixture cannot be empty")
        if any(w < 0 for w in self.trace_weights.values()):
            raise ValueError("trace weights must be non-negative")
        # Normalize the trace mixture once instead of per session
        # (object.__setattr__ because the dataclass is frozen).
        families = tuple(self.trace_weights)
        probs = np.array([self.trace_weights[f] for f in families], dtype=float)
        object.__setattr__(self, "_trace_families", families)
        object.__setattr__(self, "_trace_probs", probs / probs.sum())

    def sample_watch_duration(self, rng: np.random.Generator) -> float:
        """Log-uniform watch duration in the configured range."""
        return float(
            np.exp(rng.uniform(np.log(self.min_watch_s), np.log(self.max_watch_s)))
        )

    def sample_trace(self, rng: np.random.Generator) -> BandwidthTrace:
        """Draw a bandwidth trace from the configured mixture."""
        families: tuple[TraceFamily, ...] = self._trace_families  # type: ignore[attr-defined]
        probs: np.ndarray = self._trace_probs  # type: ignore[attr-defined]
        family = families[int(rng.choice(len(families), p=probs))]
        return generate_trace(family, rng, duration=self.max_watch_s + 100.0)


def resolve_collection_scenario(
    config: CollectionConfig | None = None,
    scenario: str | Scenario | None = None,
) -> Scenario:
    """Resolve the scenario a collection run streams over.

    Precedence: an explicit ``scenario`` argument beats the config's
    pinned scenario, which beats the process environment
    (``REPRO_SCENARIO``).  Callers that fan work out to pool workers
    must pin the result into the config first — workers re-read their
    own environment, which may not match a coordinator-side override.
    """
    if scenario is not None:
        return resolve_scenario(scenario)
    if config is not None and config.scenario is not None:
        return resolve_scenario(config.scenario)
    return resolve_scenario(get_config().scenario)


def resolve_collection_workload(
    config: CollectionConfig | None = None,
    workload: str | Workload | None = None,
) -> Workload:
    """Resolve the workload a collection run generates.

    Same precedence chain as :func:`resolve_collection_scenario`:
    explicit argument > ``CollectionConfig.workload`` >
    ``REPRO_WORKLOAD``.  Imported lazily so this module stays importable
    without :mod:`repro.workloads` (which imports the profile modules).
    """
    from repro.workloads import resolve_workload

    if workload is not None:
        return resolve_workload(workload)
    if config is not None and config.workload is not None:
        return resolve_workload(config.workload)
    return resolve_workload(get_config().workload)


def collect_session(
    profile: ServiceProfile,
    video: Video,
    rng: np.random.Generator,
    trace: BandwidthTrace | None = None,
    watch_duration_s: float | None = None,
    config: CollectionConfig | None = None,
    warm_start: bool = False,
    scenario: str | Scenario | None = None,
) -> SessionTrace:
    """Stream one session and return the full simulation trace."""
    config = config or CollectionConfig()
    sc = resolve_collection_scenario(config, scenario)
    if trace is None:
        trace = config.sample_trace(rng)
    if watch_duration_s is None:
        watch_duration_s = config.sample_watch_duration(rng)
    player = PlayerSession(
        profile=profile,
        video=video,
        link=sc.build_path(trace),
        rng=rng,
        watch_duration_s=watch_duration_s,
        tcp_params_factory=default_tcp_params,
        warm_start=warm_start,
    )
    return player.run()


@dataclass(frozen=True)
class CollectionPlan:
    """A collection run's arguments, resolved once
    (:func:`plan_collection`) before :func:`collect_corpus` cuts them
    into tasks."""

    profile: ServiceProfile
    #: The caller's config with the resolved scenario and workload
    #: pinned: pool workers re-parse their own environment, so a
    #: coordinator-side override would otherwise silently degrade to
    #: the defaults (and break bit-identity between worker counts).
    config: CollectionConfig
    jobs: int
    #: ``SeedSequence(seed).spawn(n_sessions)``: session ``i`` draws
    #: from ``seeds[i]`` however the run is chunked or sharded.
    seeds: list[np.random.SeedSequence]


def plan_collection(
    service: str | ServiceProfile,
    n_sessions: int,
    seed: int = 0,
    config: CollectionConfig | None = None,
    n_jobs: int | None = None,
    workload: str | Workload | None = None,
) -> CollectionPlan:
    """Resolve a collection run's arguments (see :class:`CollectionPlan`).

    String ``service`` names are looked up among the resolved
    workload's profiles; a profile *object* carries its own workload
    tag, which wins over config/environment when no explicit
    ``workload`` is given.  Jobs fall back to 1 when the profile does
    not pickle.
    """
    if n_sessions < 0:
        raise ValueError("n_sessions must be non-negative")
    config = config or CollectionConfig()
    if workload is None and not isinstance(service, str):
        workload = getattr(service, "workload", None)
    wl = resolve_collection_workload(config, workload)
    profile = wl.get_profile(service) if isinstance(service, str) else service
    config = dataclasses.replace(
        config, scenario=resolve_collection_scenario(config), workload=wl
    )
    return CollectionPlan(
        profile=profile,
        config=config,
        jobs=resolve_jobs_for(profile, n_jobs),
        seeds=np.random.SeedSequence(seed).spawn(n_sessions),
    )


def collect_records(
    profile: ServiceProfile,
    config: CollectionConfig,
    seeds: list[np.random.SeedSequence],
) -> list[SessionRecord]:
    """Collect one run of sessions, one spawned seed per session.

    Each session gets its own generator seeded from a spawned
    :class:`~numpy.random.SeedSequence`, so the records depend only on
    the session's index — never on chunking, sharding, or worker
    count.  This is the unit of work every :func:`collect_corpus` task
    executes.

    The workload's session source is built once per chunk (that is
    where catalogs are constructed), then driven once per seed — the
    exact draw order of the pre-registry harness, so default-workload
    corpora are bit-identical to it.
    """
    with telemetry.span("collect_chunk", sessions=len(seeds)):
        wl = resolve_collection_workload(config)
        collect_one = wl.session_source(profile, config)
        records = []
        for seed_seq in seeds:
            rng = np.random.default_rng(seed_seq)
            trace = collect_one(rng)
            records.append(
                SessionRecord.from_trace(trace, profile, workload=wl.name)
            )
        telemetry.count("collection.sessions", len(seeds))
    return records


def _collect_task(
    task: tuple[
        ServiceProfile,
        CollectionConfig,
        list[np.random.SeedSequence],
        Path | None,
        int,
    ],
) -> ShardReader | ShardEntry:
    """Pool-worker entry point: collect one task's sessions.

    A shard task (``root`` set) writes shard ``index`` itself and
    returns only its manifest entry; a chunk task returns its records
    encoded into one held block.  Either way no record crosses the
    queue, and the coordinator never holds a whole corpus of records.
    """
    profile, config, seeds, root, index = task
    records = collect_records(profile, config, seeds)
    if root is None:
        return held_block(profile.name, records)
    return write_shard(root, index, profile.name, records)


def collect_corpus(
    service: str | ServiceProfile,
    n_sessions: int,
    seed: int = 0,
    config: CollectionConfig | None = None,
    n_jobs: int | None = None,
    workload: str | Workload | None = None,
    out: str | Path | None = None,
    shard_size: int | None = None,
) -> Dataset:
    """Collect a corpus of sessions for one service.

    The paper's corpora are 2,111 (Svc1), 2,216 (Svc2) and 1,440
    (Svc3) sessions; pass those counts to regenerate the evaluation at
    full scale, or fewer for quick runs.

    ``workload`` selects the application model (``has``/``live``/
    ``rtc``); arguments resolve through :func:`plan_collection`.

    Sessions are independent, so collection fans out over a process
    pool (``n_jobs``; defaults to ``REPRO_JOBS``/all cores).  Each
    session draws its randomness from
    ``np.random.SeedSequence(seed).spawn(n_sessions)``, making the
    corpus bit-identical for every worker count and shard size.

    Without ``out`` the corpus returns in memory, each worker's chunk
    encoded into one held block by the worker.  With ``out`` it is
    written to that format-4 shard directory in shards of
    ``shard_size`` (default ``REPRO_SHARD_SIZE``, 512) and returned as
    the stored :class:`~repro.collection.dataset.Dataset` over it; the
    directory is opened before any session is simulated and its
    manifest is written last.  The task shape follows from the inputs
    alone: when every worker gets at least one whole shard
    (``n_sessions >= jobs * shard_size``), each task is one shard that
    its worker writes; otherwise each worker collects one chunk and the
    coordinator cuts the records of the returned blocks into the same
    shards, one shard's records at a time.  No record crosses the
    queue either way.
    """
    if out is None and shard_size is not None:
        raise ValueError("shard_size needs out= (a target shard directory)")
    plan = plan_collection(service, n_sessions, seed, config, n_jobs, workload)
    profile, jobs = plan.profile, plan.jobs
    root = None
    if out is not None:
        shard_size = resolve_shard_size(shard_size)
        root = open_shard_dir(out)
    per_shard = root is not None and n_sessions >= jobs * shard_size
    if per_shard:
        bounds = shard_bounds(n_sessions, shard_size)
    else:
        # One chunk per worker: the catalog is rebuilt per chunk, and
        # session costs are i.i.d. enough that static chunks balance well.
        edges = np.linspace(0, n_sessions, (min(jobs, n_sessions) or 1) + 1)
        edges = edges.astype(int).tolist()
        bounds = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    with telemetry.span(
        "collect_corpus",
        service=profile.name,
        n_sessions=n_sessions,
        jobs=jobs,
        tasks=len(bounds),
        per_shard=per_shard,
    ):
        tasks = [
            (profile, plan.config, plan.seeds[lo:hi], root if per_shard else None, i)
            for i, (lo, hi) in enumerate(bounds)
        ]
        results = parallel_map(_collect_task, tasks, n_jobs=jobs, chunksize=1)
        if per_shard:
            entries = results
        else:
            corpus = Dataset._held(
                profile.name, plan.config.scenario.name, plan.config.workload.name, results
            )
            if root is None:
                return corpus
            entries = write_shards(root, profile.name, corpus, shard_size)
        return commit_shard_dir(
            root,
            manifest_payload(
                profile.name,
                shard_size,
                entries,
                scenario=plan.config.scenario.name,
                workload=plan.config.workload.name,
            ),
        )
