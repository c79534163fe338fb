"""The repository's benchmark: one command, three workloads, every metric
printed by name with its unit, outputs checked.

    python3 perfbench/run.py --workload collect-mix --seed 1 --seconds 15 --trace 0

Run it from the repository root.  It builds nothing: the program is the
pure-Python package under ``src/``, imported from this checkout only (a
checkout without ``src/repro`` exits non-zero and prints no result).

A run makes its inputs from ``--seed``, sets the workload up (timed as
``setup_s``), then repeats the workload's timed pass until ``--seconds``
of passes have run (at least one), checking each pass's outputs after
it, outside the timed region.

The host's speed flips by up to 2x within seconds, with its other
tenants' load, so the end-to-end times are reported at a reference host
speed: each set-up's and pass's wall time is scaled by the host speed
sampled throughout it (``hostspeed.py``).  The times as measured, and
the host's speed, are in the record's ``meta.as_measured``; per-layer
times are as measured.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``attempted``/``failed`` count operations and checks, so their ratio is
the run's fail ratio.

* ``--trace 0`` reports the end-to-end metrics (see ``END_TO_END``).
* ``--trace 1`` alternates untraced and traced passes, wraps every public
  call into the program in a benchmark-side span (``spans.py``), and
  reports each layer's self time per pass plus per-layer counts (see
  ``PER_LAYER``), and the tracing overhead of traced passes over
  untraced ones.  Spans are written to ``perfbench/_out/*.spans.jsonl``.

Isolation: every run uses a fresh artifact store under a temporary
directory inside ``perfbench/_out`` (removed at exit), never the
repository's ``.cache/``; the worker count is explicit,
``min(2, nproc)``; each run writes a record with the commit, ``nproc``,
Python and numpy versions, seed and workload sizes next to its result.

Seeds: seeds 1-10 were used while this benchmark was built and tuned.
A claimed gain must also hold on the held-out seed ``HELD_OUT_SEED``,
which was never run during development.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "_out"

DEVELOPMENT_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 7919

#: (name, unit) of every end-to-end metric; every workload reports all.
END_TO_END = (
    ("setup_s", "s"),  # median of the workload's set-ups, at the reference speed
    ("body_s", "s"),  # median wall time of one timed pass, at the reference speed
    ("items_per_s", "1/s"),  # sessions (collect-mix, eval-has) or events (stream-isp) per reference second of passes
    ("peak_rss_mb", "MB"),  # own peak RSS plus the largest worker's, over set-up and the first pass
)

#: Span names timed as layers; each is reported as ``<name>_s``.
LAYER_SPANS = (
    "collection.has",
    "collection.live",
    "collection.rtc",
    "collection.hostile",
    "collection.shards.verify",
    "collection.shards.load",
    "tlsproxy.table",
    "features.tls",
    "netflow.flow",
    "features.ml16",
    "ml.cv",
    "ml.fit",
    "collection.fleet.score",
    "stream.ingest",
    "stream.flush",
    "sessions.detect",
)

#: Per-layer values that are not span times, with their units.
LAYER_VALUES = (
    ("collection.sessions", "count"),
    ("collection.transactions", "count"),
    ("collection.shard_bytes", "bytes"),
    ("parallel.busy_ratio", "ratio"),
    ("features.packet_tls_record_ratio", "x"),
    ("features.ml16_tls_compute_ratio", "x"),
    ("ml.cv_accuracy", "ratio"),
    ("artifacts.hits", "count"),
    ("artifacts.misses", "count"),
    ("stream.scored", "count"),
    ("stream.evicted", "count"),
    ("stream.late_dropped", "count"),
    ("stream.batches", "count"),
    ("stream.batch_p50_ms", "ms"),
    ("stream.batch_p99_ms", "ms"),
    ("stream.batch_samples", "count"),
    ("trace.overhead_pct", "%"),
)

PER_LAYER = tuple((f"{name}_s", "s") for name in LAYER_SPANS) + LAYER_VALUES

#: The paper's values for its cost-ratio rows, printed alongside ours.
PAPER_REFERENCE = {
    "features.packet_tls_record_ratio": "~1400x",
    "features.ml16_tls_compute_ratio": "~60x",
}

#: Environment the program reads; cleared so only this run's settings apply.
PROGRAM_ENV = (
    "REPRO_JOBS",
    "REPRO_SCALE",
    "REPRO_CACHE_DIR",
    "REPRO_SMOKE",
    "REPRO_TRACE",
    "REPRO_SHARD_SIZE",
    "REPRO_SCENARIO",
    "REPRO_WORKLOAD",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("collect-mix", "eval-has", "stream-isp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0  # ru_maxrss is in KiB on Linux


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(args, workdir: Path, jobs: int, speed) -> dict:
    """Set up, run timed passes, check; return the run's record.  ``speed``
    is the running :class:`hostspeed.SpeedSampler`."""
    import numpy as np

    from repro import parallel
    from spans import SpanRecorder
    from workloads import SIZES, WORKLOADS, Run

    sizes = SIZES["smoke" if args.smoke else "full"][args.workload]
    spans = SpanRecorder()
    run = Run(seed=args.seed, jobs=jobs, workdir=workdir, spans=spans)
    workload = WORKLOADS[args.workload](sizes)

    setup_times = []  # (wall seconds, start, end)
    for _ in range(workload.setups):
        spans.enabled = bool(args.trace)
        t0 = time.perf_counter()
        with spans.span("setup"):
            state = workload.setup(run)
        # Reap the workers, so their CPU time and RSS are accounted for
        # before the passes start.
        parallel.shutdown()
        t1 = time.perf_counter()
        setup_times.append((t1 - t0, t0, t1))
        spans.enabled = False

    # The benchmark's own inputs (the stream feed, the set-up corpora)
    # would otherwise be traversed by every full garbage collection during
    # the passes, a cost the program does not pay when its input streams in.
    gc.collect()
    gc.freeze()

    passes = []  # (traced, wall seconds, items, start, end)
    cpu = 0.0
    measured = 0.0
    rss = None
    while not passes or measured < args.seconds or (args.trace and len(passes) % 2):
        # A traced run alternates untraced and traced passes over the same
        # inputs, so their difference is the tracing overhead.
        traced = bool(args.trace) and len(passes) % 2 == 1
        inputs = len(passes) // 2 if args.trace else len(passes)
        spans.enabled = traced
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with spans.span("pass"):
            output = workload.body(run, state, inputs)
        t1 = time.perf_counter()
        wall = t1 - t0
        spans.enabled = False
        # Workers' CPU time and peak RSS are known only once they are reaped.
        parallel.shutdown()
        cpu += cpu_seconds() - cpu0
        if rss is None:
            # Set-up and one pass; the checks allocate for themselves.
            rss = peak_rss_mb()
        passes.append((traced, wall, output.items, t0, t1))
        measured += wall
        spans.enabled = traced
        with spans.span("check"):
            workload.check(run, state, output.payload)
        spans.enabled = False
    busy = cpu / (measured * jobs)

    # Times at the reference host speed (see hostspeed.py), and as measured.
    setup_ref = [speed.at_reference(*setup) for setup in setup_times]
    untraced = [
        (speed.at_reference(wall, t0, t1), wall, items)
        for traced, wall, items, t0, t1 in passes
        if not traced
    ]
    as_measured = {
        "setup_s": statistics.median(wall for wall, _, _ in setup_times),
        "body_s": statistics.median(wall for _, wall, _ in untraced),
        "items_per_s": sum(n for _, _, n in untraced) / sum(wall for _, wall, _ in untraced),
        "host_kernel_ms": speed.kernel_s() * 1e3,
    }
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup_ref),
            "body_s": statistics.median(ref for ref, _, _ in untraced),
            "items_per_s": sum(n for _, _, n in untraced) / sum(ref for ref, _, _ in untraced),
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        traced_walls = [wall for traced, wall, *_ in passes if traced]
        n_traced = len(traced_walls)
        setup_self = spans.self_times({"setup"})
        pass_self = spans.self_times({"pass", "check"})
        # A layer's time per pass where the passes exercise it, else per
        # set-up (eval-has and stream-isp collect only while setting up).
        values = {
            f"{name}_s": pass_self[name] / n_traced
            if name in pass_self
            else setup_self.get(name, 0.0) / workload.setups
            for name in LAYER_SPANS
        }
        n_checked = len(passes)
        values.update({name: total / n_checked for name, total in run.per_pass.items()})
        values.update(run.per_run)
        latencies_ms = np.asarray(run.batch_latencies) * 1e3
        untraced_median = as_measured["body_s"]
        values.update(
            {
                "parallel.busy_ratio": busy,
                "stream.batch_p50_ms": float(np.percentile(latencies_ms, 50)) if latencies_ms.size else 0.0,
                "stream.batch_p99_ms": float(np.percentile(latencies_ms, 99)) if latencies_ms.size else 0.0,
                "stream.batch_samples": int(latencies_ms.size),
                "trace.overhead_pct": (statistics.median(traced_walls) - untraced_median)
                / untraced_median
                * 100.0,
            }
        )
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
        spans.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")

    return {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "development_seeds": list(DEVELOPMENT_SEEDS),
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "sizes": sizes,
            "pass_s": [wall for _, wall, *_ in passes],
            "as_measured": as_measured,
            "jobs": jobs,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": commit(),
            "src_sha256": source_digest(),
        },
        "failures": run.failures,
        "result": {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = min(2, os.cpu_count() or 1)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        for var in PROGRAM_ENV:
            os.environ.pop(var, None)
        os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
        os.environ["REPRO_JOBS"] = str(jobs)
        import_program()
        with SpeedSampler() as speed:
            record = measure(args, workdir, jobs, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"FAILED CHECK: {failure}")
    result = record["result"]
    print(f"{'fail_ratio':40s} {result['failed'] / result['attempted']:>16.6g} ({result['failed']}/{result['attempted']})")
    for metric, entry in record["result"]["metrics"].items():
        reference = PAPER_REFERENCE.get(metric)
        note = f"  (paper: {reference})" if reference else ""
        print(f"{metric:40s} {entry['value']:>16.6g} {entry['unit']}{note}")
    print(json.dumps({"meta": record["meta"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
