"""Session-collection harness (paper §4.1).

Streams sessions under emulated network conditions: each session draws
a title from the profile's catalog (a video, or a call shape for RTC),
a bandwidth trace from the FCC/3G/LTE mixture, a watch duration from
30-1200 seconds, and per-connection path parameters (RTT, loss), then
runs the simulator the profile names and packs the result into a
:class:`SessionRecord`.  One :func:`collect_session` serves every
workload.
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
from repro.has.player import SessionTrace
from repro.has.services import SessionProfile
from repro.net.bandwidth import BandwidthTrace, TraceFamily, generate_trace
from repro.net.scenarios import Scenario, resolve_scenario
from repro.net.tcp import TcpParams
from repro.parallel import parallel_map, resolve_jobs_for
from repro.workloads import get_profile

if TYPE_CHECKING:
    from repro.has.video import Video
    from repro.rtc.model import RtcCallSpec

__all__ = [
    "CollectionConfig",
    "CollectionPlan",
    "default_tcp_params",
    "plan_collection",
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
    streams over (a registry name or a
    :class:`~repro.net.scenarios.Scenario`); ``None`` is identity, the
    unimpaired pipeline.  The application model is not a knob here:
    each profile names its own workload.
    """

    min_watch_s: float = 30.0
    max_watch_s: float = 1200.0
    #: Trace mixture, weighted toward cellular (the paper's focus on
    #: capacity-constrained cellular networks) while keeping the
    #: broadband tail that pushes the Figure-3 CDF out to ~100 Mbps.
    trace_weights: dict[TraceFamily, float] = field(
        default_factory=lambda: {
            TraceFamily.FCC: 0.30,
            TraceFamily.HSDPA_3G: 0.40,
            TraceFamily.LTE: 0.30,
        }
    )
    catalog_seed: int = 0
    scenario: str | Scenario | None = None

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


def collect_session(
    profile: SessionProfile,
    video: Video | RtcCallSpec,
    rng: np.random.Generator,
    trace: BandwidthTrace | None = None,
    watch_duration_s: float | None = None,
    config: CollectionConfig | None = None,
    warm_start: bool = False,
) -> SessionTrace:
    """Stream one session and return the full simulation trace.

    ``video`` is the title from the profile's catalog (a call shape
    for RTC profiles), and the session runs the simulator the profile
    names (``profile.simulator``), over the config's scenario.  Unless
    given, the bandwidth trace and then the watch duration are drawn
    from ``rng``, before the simulator draws its connection pool's and
    hostnames' randomness.  An RTC profile rejects ``warm_start=True``.
    """
    config = config or CollectionConfig()
    sc = resolve_scenario(config.scenario)
    if trace is None:
        trace = config.sample_trace(rng)
    if watch_duration_s is None:
        watch_duration_s = config.sample_watch_duration(rng)
    session = profile.simulator(
        profile,
        video,
        sc.build_path(trace),
        rng,
        watch_duration_s,
        default_tcp_params,
        warm_start=warm_start,
    )
    return session.run()


@dataclass(frozen=True)
class CollectionPlan:
    """A collection run's arguments, resolved once
    (:func:`plan_collection`) before :func:`collect_corpus` cuts them
    into tasks."""

    profile: SessionProfile
    #: The caller's config with its scenario resolved (validated before
    #: any session is simulated; its name goes into the manifest).
    config: CollectionConfig
    jobs: int
    #: ``SeedSequence(seed).spawn(n_sessions)``: session ``i`` draws
    #: from ``seeds[i]`` however the run is chunked or sharded.
    seeds: list[np.random.SeedSequence]


def plan_collection(
    service: str | SessionProfile,
    n_sessions: int,
    seed: int = 0,
    config: CollectionConfig | None = None,
    n_jobs: int | None = None,
) -> CollectionPlan:
    """Resolve a collection run's arguments (see :class:`CollectionPlan`).

    A ``service`` name is looked up with
    :func:`~repro.workloads.get_profile`; the profile names its own
    workload.  Jobs fall back to 1 when the profile does not pickle.
    """
    if n_sessions < 0:
        raise ValueError("n_sessions must be non-negative")
    config = config or CollectionConfig()
    profile = get_profile(service) if isinstance(service, str) else service
    config = dataclasses.replace(config, scenario=resolve_scenario(config.scenario))
    return CollectionPlan(
        profile=profile,
        config=config,
        jobs=resolve_jobs_for(profile, n_jobs),
        seeds=np.random.SeedSequence(seed).spawn(n_sessions),
    )


def collect_records(
    profile: SessionProfile,
    config: CollectionConfig,
    seeds: list[np.random.SeedSequence],
) -> list[SessionRecord]:
    """Collect one run of sessions, one spawned seed per session.

    Each session gets its own generator seeded from a spawned
    :class:`~numpy.random.SeedSequence`, so the records depend only on
    the session's index — never on chunking, sharding, or worker
    count.  This is the unit of work every :func:`collect_corpus` task
    executes.

    The profile's catalog is built once per chunk, then each seed draws
    a title from it and runs :func:`collect_session` — the exact draw
    order of the pre-registry harness, so default-workload corpora are
    bit-identical to it.
    """
    with telemetry.span("collect_chunk", sessions=len(seeds)):
        catalog = profile.make_catalog(seed=config.catalog_seed)
        records = []
        for seed_seq in seeds:
            rng = np.random.default_rng(seed_seq)
            trace = collect_session(profile, catalog.sample(rng), rng, config=config)
            records.append(SessionRecord.from_trace(trace, profile))
        telemetry.count("collection.sessions", len(seeds))
        # Simulated HTTP requests: the unit of the simulator's work.
        telemetry.count("collection.requests", sum(r.n_http_transactions for r in records))
    return records


def _collect_task(
    task: tuple[
        SessionProfile,
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
    service: str | SessionProfile,
    n_sessions: int,
    seed: int = 0,
    config: CollectionConfig | None = None,
    n_jobs: int | None = None,
    out: str | Path | None = None,
    shard_size: int | None = None,
) -> Dataset:
    """Collect a corpus of sessions for one service.

    The paper's corpora are 2,111 (Svc1), 2,216 (Svc2) and 1,440
    (Svc3) sessions; pass those counts to regenerate the evaluation at
    full scale, or fewer for quick runs.

    ``service`` is a profile or its name (``svc1``, ``live1``,
    ``rtc1``, ...), which also chooses the application model; arguments
    resolve through :func:`plan_collection`.

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
    plan = plan_collection(service, n_sessions, seed, config, n_jobs)
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
        results = parallel_map(_collect_task, tasks, n_jobs=jobs)
        if per_shard:
            entries = results
        else:
            corpus = Dataset._held(
                profile.name, plan.config.scenario.name, profile.workload, results
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
                workload=profile.workload,
            ),
        )
