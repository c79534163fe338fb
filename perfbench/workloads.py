"""The three benchmark workloads, each driving the program through its
public entry points only.

* ``collect-mix`` — the simulator and collection fleet: five cells
  (svc1, svc2, live1, rtc1, and svc1 over the ``hostile`` impairment
  scenario) collected into format-4 shards, round after round.
* ``eval-has`` — the paper's offline evaluation of one on-demand
  service over a sharded svc1 corpus collected during set-up.
* ``stream-isp`` — the online detector: a ~250k-event feed of many
  concurrent user streams replayed in 256-event micro-batches by one
  closed-loop caller (a proxy-log tailer waits for each ingest).

A workload has a ``setup`` (untimed by the pass clock, reported as
``setup_s``), a ``body`` (one timed pass) and a ``check`` that validates
one pass's outputs after the pass, outside its timed region.  ``body`` gets an input index: passes with the
same index do the same work (only ``collect-mix`` draws new inputs per
pass; the others' inputs are fixed by set-up).
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.api as api
from repro import config as repro_config
from repro.artifacts import get_store
from repro.collection.dataset import Dataset, DatasetFormatError
from repro.collection.fleet import extract_tls_sharded, score_sharded
from repro.stream.replay import (
    check_batch_equivalence,
    dataset_streams,
    interleave,
    synthetic_events,
)

#: Workload sizes.  ``full`` is what the benchmark measures; ``smoke``
#: runs every workload in seconds for the benchmark's own tests.
SIZES = {
    "full": {
        "collect-mix": {"sessions_per_cell": 100, "shard_size": 25, "warmup_sessions": 24},
        "eval-has": {"sessions": 1000, "shard_size": 128, "ml16_slice": 16},
        "stream-isp": {
            "sessions_per_app": 300,
            "streams_per_app": 90,
            "target_events": 250_000,
            "idle_streams": 1000,
            "micro_batch": 256,
        },
    },
    "smoke": {
        "collect-mix": {"sessions_per_cell": 4, "shard_size": 2, "warmup_sessions": 2},
        "eval-has": {"sessions": 60, "shard_size": 16, "ml16_slice": 2},
        "stream-isp": {
            "sessions_per_app": 8,
            "streams_per_app": 2,
            "target_events": 3000,
            "idle_streams": 20,
            "micro_batch": 256,
        },
    },
}

#: A CV accuracy below this means the model, not just its speed, changed
#: (svc1 corpora of 1000 sessions score about 0.85).
CV_ACCURACY_FLOOR = 0.7


@dataclass
class Run:
    """What one benchmark run shares with its workload."""

    seed: int
    jobs: int
    workdir: Path
    spans: object
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: Per-layer values known once per run (set-up work counts).
    per_run: dict = field(default_factory=dict)
    #: Per-layer values summed over checked passes (reported per pass).
    per_pass: dict = field(default_factory=dict)
    #: Stream micro-batch latencies, seconds, pooled over passes.
    batch_latencies: list = field(default_factory=list)
    _caches: int = 0

    def span(self, name: str):
        return self.spans.span(name)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def tally(self, name: str, value: float) -> None:
        self.per_pass[name] = self.per_pass.get(name, 0.0) + value

    def fresh_cache_dir(self) -> Path:
        self._caches += 1
        path = self.workdir / f"cache-{self._caches}"
        path.mkdir()
        return path


@dataclass
class PassOutput:
    items: int
    payload: object


# ----------------------------------------------------------------------
# collect-mix

#: (service, workload, scenario, layer span) per cell.
CELLS = (
    ("svc1", "has", None, "collection.has"),
    ("svc2", "has", None, "collection.has"),
    ("live1", "live", None, "collection.live"),
    ("rtc1", "rtc", None, "collection.rtc"),
    ("svc1", "has", "hostile", "collection.hostile"),
)


class CollectMix:
    """Collection of all five cells per pass; the only workload where
    simulation and shard writes do most of the work."""

    name = "collect-mix"
    #: Set-up is a small warm-up collection of every cell (pool start,
    #: first-use imports); cheap enough to repeat for a median.
    setups = 5

    def __init__(self, sizes: dict):
        self.sizes = sizes
        self._rounds = 0

    def _collect_cells(self, run: Run, root: Path, n: int, shard_size: int, inputs: int):
        cells = []
        for c, (service, workload, scenario, layer) in enumerate(CELLS):
            with run.span(layer):
                cells.append(
                    api.collect_corpus(
                        service,
                        n_sessions=n,
                        seed=(run.seed * 1000 + inputs) * 10 + c,
                        workload=workload,
                        scenario=scenario,
                        jobs=run.jobs,
                        out=str(root / f"cell{c}"),
                        shard_size=shard_size,
                    )
                )
        self._rounds += 1
        return cells

    def setup(self, run: Run):
        root = run.workdir / f"warmup-{self._rounds}"
        n = self.sizes["warmup_sessions"]
        for ds in self._collect_cells(run, root, n, shard_size=n // 2, inputs=0):
            run.check(len(ds) == n, "warm-up cell holds the requested sessions")
        shutil.rmtree(root)
        return None

    def body(self, run: Run, state, inputs: int) -> PassOutput:
        root = run.workdir / f"round-{self._rounds}"
        cells = self._collect_cells(
            run, root, self.sizes["sessions_per_cell"], self.sizes["shard_size"], inputs
        )
        return PassOutput(items=len(CELLS) * self.sizes["sessions_per_cell"], payload=(root, cells))

    def check(self, run: Run, state, payload) -> None:
        root, cells = payload
        n = self.sizes["sessions_per_cell"]
        n_shards = math.ceil(n / self.sizes["shard_size"])
        for ds, (service, workload, scenario, _) in zip(cells, CELLS):
            label = f"{service}/{workload}/{scenario or 'identity'}"
            try:
                with run.span("collection.shards.verify"):
                    info = ds.verify()
            except DatasetFormatError as exc:
                run.check(False, f"{label}: verify failed: {exc}")
                continue
            run.check(info["shards"] == n_shards, f"{label}: shard count")
            run.check(len(ds) == n, f"{label}: manifest session count")
            run.check(
                (ds.service, ds.workload, ds.scenario)
                == (service, workload, scenario or "identity"),
                f"{label}: manifest metadata",
            )
            tables = list(ds.iter_tables())
            run.check(
                sum(t.n_sessions for t in tables) == n, f"{label}: sessions on disk"
            )
            run.tally("collection.sessions", len(ds))
            run.tally("collection.transactions", sum(t.n_rows for t in tables))
            run.tally("collection.shard_bytes", info["bytes"])
        shutil.rmtree(root)


# ----------------------------------------------------------------------
# eval-has


@dataclass
class EvalState:
    path: Path
    ml16_slice: Dataset


class EvalHas:
    """The paper's offline loop on one on-demand service, where the ML
    layer dominates; it also reads the shards collection writes."""

    name = "eval-has"
    #: Set-up collects a corpus of ~1000 sessions: too slow to repeat.
    setups = 1

    def __init__(self, sizes: dict):
        self.sizes = sizes

    def setup(self, run: Run) -> EvalState:
        path = run.workdir / "svc1.shards"
        with run.span("collection.has"):
            ds = api.collect_corpus(
                "svc1",
                n_sessions=self.sizes["sessions"],
                seed=run.seed,
                jobs=run.jobs,
                out=str(path),
                shard_size=self.sizes["shard_size"],
            )
        # The ML16 slice: the sessions whose downlink volume is nearest the
        # corpus median.  Packet-trace size sets ML16's time and the run's
        # peak memory, so a slice that happened to hold one heavy session
        # would make both hinge on the seed.
        volumes = []
        for table in ds.iter_tables():
            cumulative = np.concatenate(([0.0], np.cumsum(table.downlink)))
            volumes.append(cumulative[table.offsets[1:]] - cumulative[table.offsets[:-1]])
        volumes = np.concatenate(volumes)
        nearest = np.argsort(np.abs(volumes - np.median(volumes)), kind="stable")
        records = [ds[int(i)] for i in sorted(nearest[: self.sizes["ml16_slice"]])]
        return EvalState(path, Dataset(service=ds.service, sessions=records))

    def body(self, run: Run, st: EvalState, inputs: int) -> PassOutput:
        # Every pass starts from an empty artifact store.
        with repro_config.override(cache_dir=run.fresh_cache_dir()):
            store = get_store()
            with run.span("collection.shards.load"):
                ds = api.load_corpus(str(st.path))
                y = ds.labels("combined")
            with run.span("features.tls"):
                X, _ = extract_tls_sharded(ds, n_jobs=run.jobs)
            with run.span("netflow.flow"):
                X_flow, _ = api.extract_features(ds, kind="flow")
            with run.span("ml.cv"):
                report = api.cross_validate(X, y, jobs=run.jobs)
            with run.span("ml.fit"):
                model = api.train_model(X, y)
            with run.span("collection.fleet.score"):
                predicted = score_sharded(model, ds, n_jobs=run.jobs)
            with run.span("features.ml16"):
                t0 = time.perf_counter()
                api.extract_features(st.ml16_slice, kind="ml16")
                ml16_s = time.perf_counter() - t0
            # TLS extraction (table build included) on the same slice, for
            # the paper's cost ratio; it takes microseconds, so take a median.
            tls_times = []
            with run.span("features.tls_slice"):
                for _ in range(5):
                    t0 = time.perf_counter()
                    api.extract_features(Dataset(service=ds.service, sessions=st.ml16_slice.sessions))
                    tls_times.append(time.perf_counter() - t0)
            counters = store.counter_snapshot()
        return PassOutput(
            items=len(ds),
            payload={
                "ds": ds,
                "X": X,
                "X_flow": X_flow,
                "y": y,
                "report": report,
                "model": model,
                "predicted": predicted,
                "ml16_tls_ratio": ml16_s / statistics.median(tls_times),
                "counters": counters,
            },
        )

    def check(self, run: Run, st: EvalState, out: dict) -> None:
        ds, X, y = out["ds"], out["X"], out["y"]
        n = self.sizes["sessions"]
        try:
            with run.span("collection.shards.verify"):
                info = ds.verify()
            run.check(info["shards"] == ds.n_shards, "corpus shard count")
        except DatasetFormatError as exc:
            run.check(False, f"corpus verify failed: {exc}")
            info = {"bytes": 0}
        run.check(len(ds) == n == len(y) == X.shape[0] == out["X_flow"].shape[0], "row counts")
        materialized = ds.to_dataset()
        with run.span("tlsproxy.table"):
            table = materialized.tls_table()
        reference, _ = api.extract_features(materialized, kind="tls")
        run.check(
            X.dtype == reference.dtype
            and X.shape == reference.shape
            and X.tobytes() == reference.tobytes(),
            "sharded TLS matrix is bit-identical to the monolithic extractor",
        )
        run.check(
            np.array_equal(out["predicted"], out["model"].predict(X)),
            "score_sharded equals model.predict",
        )
        counters = out["counters"]
        run.check(
            counters["misses"] == ds.n_shards and counters["hits"] == 0,
            "cold store: one artifact miss per shard, no hits",
        )
        accuracy = out["report"].accuracy
        run.check(accuracy >= CV_ACCURACY_FLOOR, f"CV accuracy {accuracy:.3f} above floor")
        run.tally("ml.cv_accuracy", accuracy)
        run.tally("collection.sessions", n)
        run.tally("collection.transactions", table.n_rows)
        run.tally("collection.shard_bytes", info["bytes"])
        run.tally("artifacts.hits", counters["hits"])
        run.tally("artifacts.misses", counters["misses"])
        run.tally("features.ml16_tls_compute_ratio", out["ml16_tls_ratio"])
        if "features.packet_tls_record_ratio" not in run.per_run:
            # A deterministic count: ML16 synthesizes session i's packet
            # trace with seed i, as here.
            records = st.ml16_slice.sessions
            packets = sum(r.packet_trace(seed=i).n_packets for i, r in enumerate(records))
            transactions = sum(len(r.tls_transactions) for r in records)
            run.per_run["features.packet_tls_record_ratio"] = packets / transactions


# ----------------------------------------------------------------------
# stream-isp

#: Event-time offset between replicas of one user stream, so replicated
#: streams interleave instead of arriving in lockstep.
REPLICA_SHIFT_S = 0.25

#: The paper's 60-tree forest on the fast histogram grower.
STREAM_MODEL = {
    "kind": "random_forest",
    "n_estimators": 60,
    "min_samples_leaf": 2,
    "max_features": "sqrt",
    "random_state": 0,
    "tree_method": "hist",
}


@dataclass
class StreamState:
    model: object
    config: object
    streams: dict
    events: list
    checked_streams: dict


class StreamIsp:
    """Online detection over many concurrent user streams: boundary
    detection, per-session accumulators, eviction and batched scoring —
    no collection or CV in the timed body."""

    name = "stream-isp"
    #: Set-up collects three corpora, fits a forest and builds the feed.
    setups = 1

    def __init__(self, sizes: dict):
        self.sizes = sizes

    def setup(self, run: Run) -> StreamState:
        s = self.sizes
        corpora = []
        for c, (service, workload, layer) in enumerate(
            (("svc1", "has", "collection.has"), ("live1", "live", "collection.live"), ("rtc1", "rtc", "collection.rtc"))
        ):
            with run.span(layer):
                corpora.append(
                    api.collect_corpus(
                        service,
                        n_sessions=s["sessions_per_app"],
                        seed=run.seed * 10 + c,
                        workload=workload,
                        jobs=run.jobs,
                    )
                )
        with run.span("features.tls"):
            X = np.vstack([api.extract_features(ds)[0] for ds in corpora])
        y = np.concatenate([ds.labels("combined") for ds in corpora])
        with run.span("ml.fit"):
            model = api.train_model(X, y, model=STREAM_MODEL)
        with run.span("stream.feed"):
            users: dict = {}
            for ds in corpora:
                users.update(dataset_streams(ds, n_streams=s["streams_per_app"]))
            base = sum(len(txns) for txns in users.values())
            replicas = max(1, round(s["target_events"] / base))
            streams = {
                f"r{r:03d}/{key}": [t.shifted(r * REPLICA_SHIFT_S) for t in txns]
                for r in range(replicas)
                for key, txns in users.items()
            }
            idle, _ = synthetic_events(
                n_streams=s["idle_streams"],
                sessions_per_stream=1,
                seed=run.seed,
            )
            for key, txn in idle:
                streams.setdefault(key, []).append(txn)
            events = interleave(streams)
        run.per_run["collection.sessions"] = sum(len(ds) for ds in corpora)
        run.per_run["collection.transactions"] = sum(ds.tls_table().n_rows for ds in corpora)
        # Replica 0 and the idle streams stand for the whole feed in the
        # batch-equivalence check; the other replicas repeat replica 0.
        idle_keys = {key for key, _ in idle}
        checked = {k: v for k, v in streams.items() if k.startswith("r000/") or k in idle_keys}
        return StreamState(model, api.StreamConfig(), streams, events, checked)

    def body(self, run: Run, st: StreamState, inputs: int) -> PassOutput:
        detector = api.StreamDetector(st.model, config=st.config)
        events = st.events
        step = self.sizes["micro_batch"]
        verdicts = []
        latencies = []
        for lo in range(0, len(events), step):
            batch = events[lo : lo + step]
            with run.span("stream.ingest"):
                t0 = time.perf_counter()
                verdicts.extend(detector.ingest_many(batch))
                latencies.append(time.perf_counter() - t0)
        with run.span("stream.flush"):
            verdicts.extend(detector.flush())
        return PassOutput(items=len(events), payload=(detector.stats(), verdicts, latencies))

    def check(self, run: Run, st: StreamState, payload) -> None:
        stats, verdicts, latencies = payload
        run.check(stats["ingested"] == len(st.events), "every event ingested")
        run.check(stats["late_dropped"] == 0, "no late drops on an in-order feed")
        run.check(
            stats["active"] == stats["pending"] == stats["queued"] == 0,
            "no state left after flush",
        )
        run.check(stats["scored"] == len(verdicts), "one verdict per scored session")
        run.check(stats["evicted"] > 0, "idle streams were evicted")
        run.check(all(v.category is not None for v in verdicts), "every verdict scored")
        checked = [v for v in verdicts if v.stream in st.checked_streams]
        try:
            with run.span("stream.batch_check"):
                check_batch_equivalence(st.checked_streams, checked, st.model, config=st.config)
            run.check(True, "streaming equals batch")
        except AssertionError as exc:
            run.check(False, f"streaming differs from batch: {exc}")
        with run.span("sessions.detect"):
            detected = sum(
                len(
                    api.detect_sessions(
                        txns,
                        config=st.config.boundary,
                        min_transactions=st.config.min_transactions,
                    )
                )
                for txns in st.streams.values()
            )
        run.check(detected == len(verdicts), "batch detection finds the streamed sessions")
        run.tally("stream.scored", stats["scored"])
        run.tally("stream.evicted", stats["evicted"])
        run.tally("stream.late_dropped", stats["late_dropped"])
        run.tally("stream.batches", len(latencies))
        run.batch_latencies.extend(latencies)


WORKLOADS = {w.name: w for w in (CollectMix, EvalHas, StreamIsp)}
