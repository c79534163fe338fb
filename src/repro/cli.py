"""Command-line interface.

The subcommands cover the operational workflow an ISP user of this
library would run::

    python -m repro collect  --service svc1 -n 500 -o corpus.shards
    python -m repro collect  --service svc1 -n 5000 --shard-size 512 -o corpus.shards
    python -m repro collect  --service svc1 -n 500 --scenario policed-2mbps -o policed.shards
    python -m repro collect  --service rtc1 -n 500 -o calls.shards
    python -m repro corpus   info|verify|shard DIR [-o DIR --shard-size N]
    python -m repro scenario [--list] [NAME ...]
    python -m repro workload [--list] [NAME ...]
    python -m repro train    --corpus corpus.shards -o model.pkl
    python -m repro evaluate --corpus corpus.shards [--model model.pkl]
    python -m repro split    --transactions stream.json [--demo svc1]
    python -m repro stream   --corpus corpus.shards [--demo svc1] [--batch-check]
    python -m repro experiment fig5 table3 ...   (or: all, or --list)
    python -m repro cache    info|clear
    python -m repro config   show
    python -m repro trace    report|validate PATH
    python -m repro trace    diff A.jsonl B.jsonl

The data commands (``collect``, ``corpus``, ``train``, ``evaluate``,
``split``, ``stream``) are thin argparse layers over the
:mod:`repro.api` facade.  Models are pickled Random Forests together
with their feature schema; corpora are format-4 shard directories
(:mod:`repro.collection.shards`).
Experiments resolve through the declarative registry
(:mod:`repro.experiments.registry`); expensive intermediates live in
the artifact store under ``REPRO_CACHE_DIR`` (:mod:`repro.artifacts`),
which ``cache info``/``cache clear`` manage.

Every command honours the resolved :mod:`repro.config` (``config
show`` prints it) and runs under a ``command`` telemetry span: pass
``--trace PATH`` (or set ``REPRO_TRACE``) to record a JSONL trace of
the run, then inspect it with ``trace report`` (or compare two runs
with ``trace diff A B``).
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from contextlib import ExitStack
from pathlib import Path

from repro import config as config_mod
from repro import telemetry
from repro._version import __version__
from repro.tlsproxy.table import TransactionTable
from repro.ml.metrics import evaluate_predictions
from repro.qoe.labels import TARGETS
from repro.qoe.metrics import COMBINED_NAMES
from repro.sessions.boundary import BoundaryConfig
from repro.sessions.workload import back_to_back_stream
from repro.tlsproxy.records import TlsTransaction

__all__ = ["main", "build_parser"]


# -- argparse value validators -------------------------------------------
# argparse turns ArgumentTypeError into a friendly two-line usage error
# (exit code 2) naming the offending flag, instead of a traceback from
# deep inside the pipeline.

def _number(text: str, kind):
    try:
        return kind(text)
    except ValueError:
        name = "an integer" if kind is int else "a number"
        raise argparse.ArgumentTypeError(f"{text!r} is not {name}") from None


def _positive_int(text: str) -> int:
    value = _number(text, int)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _positive_float(text: str) -> float:
    value = _number(text, float)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0 (got {text})")
    return value


def _nonneg_float(text: str) -> float:
    value = _number(text, float)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {text})")
    return value


def _unit_float(text: str) -> float:
    value = _number(text, float)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fraction in [0, 1] (got {text})"
        )
    return value


def _scenario_name(text: str) -> str:
    """Validate a ``--scenario`` value against the registry up front,
    so a typo is a two-line usage error naming the valid names instead
    of a traceback from the first collected session."""
    from repro.net.scenarios import UnknownScenarioError, get_scenario

    try:
        get_scenario(text)
    except UnknownScenarioError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _profile_name(text: str) -> str:
    """Validate a ``--service`` value against every workload's profiles
    up front, as ``--scenario`` is."""
    from repro.workloads import UnknownProfileError, get_profile

    try:
        get_profile(text)
    except UnknownProfileError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _resolve_cli_scenario(args: argparse.Namespace):
    """The scenario ``collect`` should stream over, or an error string.

    Returns ``(scenario_or_None, None)`` on success — ``None`` meaning
    "no flag given": identity — or ``(None, message)`` when the
    override flags are inconsistent.
    """
    from repro.net import scenarios as scenarios_mod

    overrides = {
        "police_rate": args.police_rate,
        "police_burst": args.police_burst,
        "queue_bytes": args.queue_bytes,
    }
    given = {k: v for k, v in overrides.items() if v is not None}
    if args.scenario is None:
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            return None, (
                f"{flags} only customize a scenario; add --scenario NAME "
                "(see 'repro scenario --list')"
            )
        return None, None
    scenario = scenarios_mod.get_scenario(args.scenario)
    if given:
        try:
            scenario = scenarios_mod.customize(scenario, **overrides)
        except ValueError as exc:
            return None, str(exc)
    return scenario, None


def _cmd_collect(args: argparse.Namespace) -> int:
    from repro.api import collect_corpus
    from repro.collection.harness import CollectionConfig
    from repro.collection.shards import CorpusPathError

    scenario, error = _resolve_cli_scenario(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        # The collector opens OUTPUT before any session is simulated: a
        # file there raises CorpusPathError and is left untouched.
        dataset = collect_corpus(
            args.service, n_sessions=args.sessions, seed=args.seed,
            config=CollectionConfig(scenario=scenario), jobs=args.jobs,
            out=args.output, shard_size=args.shard_size,
        )
    except CorpusPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    as_workload = "" if dataset.workload == "has" else f" ({dataset.workload} workload)"
    impaired = dataset.scenario != "identity"
    over = f" over scenario {dataset.scenario}" if impaired else ""
    dist = dataset.label_distribution("combined")
    print(
        f"collected {len(dataset)} {args.service} sessions{as_workload}{over} "
        f"-> {args.output} ({dataset.n_shards} shards of <= {dataset.shard_size}) "
        f"(combined QoE: {dist[0]:.0%}/{dist[1]:.0%}/{dist[2]:.0%} low/med/high)"
    )
    if impaired:
        policed = dataset.labels("policed")
        print(
            f"  pipeline: {scenario.describe()}\n"
            f"  policed sessions: {int(policed.sum())}/{len(dataset)}"
        )
    return 0


def _show_registry(
    kind: str, entries: list[dict], names: list[str], summary: str, detail: str
) -> int:
    """``repro scenario``/``repro workload``: with no ``names``, one line
    per entry (name and its ``summary`` field); else each named entry's
    title, description and ``detail`` line.  An unknown name prints
    every valid one and exits 2 before anything is shown."""
    by_name = {entry["name"]: entry for entry in entries}
    if not names:
        name_w = max(len(name) for name in by_name)
        for name, entry in by_name.items():
            print(f"{name:<{name_w}}  {entry[summary]}")
        return 0
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(
            f"error: unknown {kind} {unknown[0]!r}; valid {kind}s: {', '.join(by_name)}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        entry = by_name[name]
        print(f"{name}: {entry['title']}")
        print(f"  {entry['description']}")
        print(f"  {detail}: {entry[detail]}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.api import list_scenarios

    names = [] if args.list else args.names
    return _show_registry("scenario", list_scenarios(), names, "description", "pipeline")


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.api import list_workloads

    entries = [{**wl, "profiles": ", ".join(wl["profiles"])} for wl in list_workloads()]
    # Workload names are case-insensitive, as in every other lookup.
    names = [] if args.list else [name.lower() for name in args.names]
    return _show_registry("workload", entries, names, "title", "profiles")


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.api import load_corpus
    from repro.collection.shards import (
        CorpusPathError,
        resolve_shard_size,
        save_sharded,
    )

    try:
        dataset = load_corpus(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1

    if args.action == "info":
        print(f"{args.path}: format 4 (sharded directory)")
        print(f"  service: {dataset.service}")
        print(
            f"  sessions: {len(dataset)} in {dataset.n_shards} shards "
            f"(shard_size={dataset.shard_size})"
        )
        print(f"  manifest digest: {dataset.manifest_digest}")
        if dataset.workload != "has":
            print(f"  workload: {dataset.workload}")
        if dataset.scenario != "identity":
            policed = int(dataset.labels("policed").sum())
            print(f"  scenario: {dataset.scenario} ({policed}/{len(dataset)} policed)")
        for target in TARGETS:
            dist = dataset.label_distribution(target)
            print(
                f"  {target}: {dist[0]:.0%}/{dist[1]:.0%}/{dist[2]:.0%} "
                "low/med/high"
            )
        return 0

    if args.action == "verify":
        result = dataset.verify()
        print(
            f"{args.path}: OK ({result['shards']} shards, "
            f"{result['bytes'] / 1e6:.1f} MB, all digests match)"
        )
        return 0

    # action == "shard": rewrite PATH as a format-4 directory.
    if not args.output:
        print("error: 'corpus shard' needs -o/--output DIR", file=sys.stderr)
        return 2
    shard_size = resolve_shard_size(args.shard_size)
    try:
        out = save_sharded(dataset, args.output, shard_size)
    except CorpusPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"sharded {len(out)} sessions -> {args.output} "
        f"({out.n_shards} shards of <= {shard_size}, "
        f"manifest digest {out.manifest_digest})"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.api import extract_features, load_corpus, train_model
    from repro.experiments.common import default_forest_config

    dataset = load_corpus(args.corpus)
    X, names = extract_features(dataset)
    model = train_model(
        X, dataset.labels(args.target),
        model=default_forest_config(args.trees, args.seed),
    )
    payload = {
        "model": model,
        "feature_names": names,
        "target": args.target,
        "service": dataset.service,
        "version": __version__,
    }
    Path(args.output).write_bytes(pickle.dumps(payload))
    print(
        f"trained {args.trees}-tree forest on {len(dataset)} sessions "
        f"({dataset.service}, target={args.target}) -> {args.output}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.api import cross_validate, extract_features, load_corpus
    from repro.experiments.common import default_forest_config

    dataset = load_corpus(args.corpus)
    X, _ = extract_features(dataset)
    y = dataset.labels(args.target)
    if args.model:
        payload = pickle.loads(Path(args.model).read_bytes())
        if payload["target"] != args.target:
            print(
                f"warning: model was trained for target {payload['target']!r}",
                file=sys.stderr,
            )
        report = evaluate_predictions(y, payload["model"].predict(X))
        mode = f"model {args.model}"
    else:
        report = cross_validate(
            X, y, model=default_forest_config(args.trees, args.seed)
        )
        mode = "5-fold cross validation"
    print(
        f"{mode} on {len(dataset)} sessions ({args.target}): "
        f"accuracy {report.accuracy:.1%}, low-class recall {report.recall:.1%}, "
        f"precision {report.precision:.1%}"
    )
    print("confusion matrix (rows=actual low/med/high):")
    print(report.confusion)
    return 0


def _load_transactions(path: str) -> list[TlsTransaction]:
    """Load ``[[start, end, ul, dl, sni], ...]`` rows, with friendly errors.

    Malformed input — unreadable file, invalid JSON, rows of the wrong
    shape, values a transaction rejects (NaN or infinite times, reversed
    times, negative bytes) — raises :class:`ValueError` naming the file,
    which the ``split``/``stream`` commands turn into an exit-2 message
    instead of a traceback.  An empty list is valid and means "no
    transactions".
    """
    try:
        rows = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of transaction rows")
    transactions = []
    for i, r in enumerate(rows):
        try:
            start, end, uplink, downlink = float(r[0]), float(r[1]), int(r[2]), int(r[3])
            sni = r[4]
        except (TypeError, ValueError, OverflowError, IndexError, KeyError):
            raise ValueError(
                f"{path}: each row must be [start, end, uplink, downlink, sni]"
            ) from None
        try:
            transactions.append(TlsTransaction(start, end, uplink, downlink, sni))
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    return transactions


def _cmd_split(args: argparse.Namespace) -> int:
    from repro.api import detect_sessions, extract_features

    if args.demo:
        stream = back_to_back_stream(args.demo, args.demo_sessions, seed=args.seed)
        transactions = list(stream.transactions)
        print(
            f"demo stream: {len(transactions)} transactions from "
            f"{stream.n_sessions} true sessions"
        )
    elif args.transactions:
        try:
            transactions = _load_transactions(args.transactions)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print("error: provide --transactions FILE or --demo SERVICE", file=sys.stderr)
        return 2
    config = BoundaryConfig(
        window_s=args.window, n_min=args.n_min, delta_min=args.delta_min
    )
    groups = detect_sessions(
        transactions, config=config, min_transactions=args.min_transactions
    )
    if not groups:
        # A zero-transaction stream is valid input with a well-defined
        # (empty) answer, not a crash.
        print("detected 0 sessions (no transactions in the stream)")
        return 0
    print(f"detected {len(groups)} sessions:")
    model_payload = (
        pickle.loads(Path(args.model).read_bytes()) if args.model else None
    )
    # One columnar table over the detected sessions: batch feature
    # extraction and one predict call instead of a per-group loop.
    table = TransactionTable.from_sessions(groups)
    categories = None
    if model_payload:
        X, _ = extract_features(table)
        categories = model_payload["model"].predict(X)
    for i in range(table.n_sessions):
        lo, hi = table.session_rows(i)
        start = float(table.start[lo:hi].min())
        end = float(table.end[lo:hi].max())
        line = f"  session {i + 1}: {hi - lo} transactions, [{start:.1f}s, {end:.1f}s]"
        if categories is not None:
            line += f", estimated QoE: {COMBINED_NAMES[int(categories[i])]}"
        print(line)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.api import StreamConfig, StreamDetector, load_corpus
    from repro.stream.replay import (
        check_batch_equivalence,
        dataset_streams,
        demo_streams,
        interleave,
        replay,
    )

    if args.demo:
        streams = demo_streams(
            args.demo, args.streams, args.demo_sessions, seed=args.seed
        )
    elif args.corpus:
        dataset = load_corpus(args.corpus)
        streams = dataset_streams(dataset, args.streams, gap_s=args.gap)
    elif args.transactions:
        try:
            transactions = _load_transactions(args.transactions)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        streams = {"stream000": transactions} if transactions else {}
    else:
        print(
            "error: provide --corpus FILE, --transactions FILE or --demo SERVICE",
            file=sys.stderr,
        )
        return 2

    model = None
    if args.model:
        model = pickle.loads(Path(args.model).read_bytes())["model"]
    config = StreamConfig(
        boundary=BoundaryConfig(
            window_s=args.window, n_min=args.n_min, delta_min=args.delta_min
        ),
        min_transactions=args.min_transactions,
        idle_timeout_s=args.idle_timeout,
        max_streams=args.max_streams,
    )
    detector = StreamDetector(model, config=config)
    events = interleave(streams)
    verdicts = replay(detector, events, micro_batch=args.batch)
    stats = detector.stats()

    n_streams = len(streams)
    print(
        f"replayed {stats['ingested']} events over {n_streams} streams "
        f"(micro-batches of {args.batch}): {len(verdicts)} session verdicts"
    )
    reasons: dict[str, int] = {}
    for v in verdicts:
        reasons[v.reason] = reasons.get(v.reason, 0) + 1
    for reason in ("boundary", "flush", "eviction"):
        if reason in reasons:
            print(f"  closed by {reason}: {reasons[reason]}")
    if model is not None and verdicts:
        dist: dict[int, int] = {}
        for v in verdicts:
            dist[v.category] = dist.get(v.category, 0) + 1
        qoe = ", ".join(
            f"{COMBINED_NAMES[c]}: {dist[c]}" for c in sorted(dist)
        )
        print(f"  estimated QoE: {qoe}")
    print(
        f"counters: ingested={stats['ingested']} scored={stats['scored']} "
        f"evicted={stats['evicted']} late_dropped={stats['late_dropped']}"
    )
    if args.batch_check:
        try:
            check_batch_equivalence(streams, verdicts, model, config=config)
        except AssertionError as exc:
            print(f"batch equivalence FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"batch equivalence: OK ({len(verdicts)} streaming verdicts match "
            "the batch pipeline bit-for-bit)"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import registry, run_all

    if args.list:
        rows = [
            (spec.name, spec.paper_ref, spec.description)
            for spec in registry.all_experiments()
        ]
        name_w = max(len(r[0]) for r in rows)
        ref_w = max(len(r[1]) for r in rows)
        for name, ref, description in rows:
            print(f"{name:<{name_w}}  {ref:<{ref_w}}  {description}")
        return 0
    if not args.names:
        print("error: name at least one experiment (or --list)", file=sys.stderr)
        return 2
    if "all" in args.names:
        run_all.main()
        return 0
    try:
        specs = [registry.get(name) for name in args.names]
    except registry.UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for spec in specs:
        spec.run()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.artifacts import CACHE_VERSION, get_store

    store = get_store()
    if args.action == "info":
        stats = store.stats()
        print(f"cache root: {stats['root']} (REPRO_CACHE_DIR)")
        print(f"cache version: v{CACHE_VERSION}")
        print(
            f"artifacts: {stats['entries']} entries, "
            f"{stats['bytes'] / 1e6:.1f} MB"
        )
        for stage, entry in sorted(stats["stages"].items()):
            print(
                f"  {stage}: {entry['entries']} entries, "
                f"{entry['bytes'] / 1e6:.1f} MB"
            )
        staging = stats["staging"]
        print(
            f"staging: {staging['dirs']} directories, "
            f"{staging['bytes'] / 1e6:.1f} MB (corpus builds not kept by the store)"
        )
        return 0
    staged = len(store.staging_dirs())
    removed = store.clear()
    print(
        f"removed {removed} files from {store.root / 'artifacts'} "
        f"and {staged} staging directories"
    )
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    rows = config_mod.get_config().describe()
    name_w = max(len(r[0]) for r in rows)
    value_w = max(len(r[1]) for r in rows)
    for name, value, var, source in rows:
        print(f"{name:<{name_w}}  {value:<{value_w}}  [{var}, from {source}]")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if (args.action == "diff") != (args.other is not None):
        need = "two trace files" if args.action == "diff" else "one trace file"
        print(f"error: 'trace {args.action}' takes {need}", file=sys.stderr)
        return 2
    try:
        if args.action == "validate":
            events = telemetry.validate_trace(args.path)
            spans = sum(1 for e in events if e.get("type") == "span")
            print(f"{args.path}: valid trace ({spans} spans, {len(events)} records)")
        elif args.action == "diff":
            print(telemetry.render_diff(args.path, args.other))
        else:
            print(telemetry.render_report(args.path, top=args.top))
    except telemetry.TraceValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Video-QoE estimation from coarse-grained TLS transaction data",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes for collection/training/CV "
             "(default: REPRO_JOBS or all cores; 1 = sequential; "
             "results are identical for every value)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a telemetry trace of this command to a JSONL file "
             "(also: REPRO_TRACE; inspect with 'repro trace report')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="simulate and store a session corpus")
    p.add_argument(
        "--service", required=True, type=_profile_name, metavar="NAME",
        help="profile to collect, which also names its workload: "
             "svc1/svc2/svc3 (has), live1/live2/live3 (live), rtc1 (rtc) — "
             "see 'repro workload --list'",
    )
    p.add_argument("-n", "--sessions", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, metavar="DIR",
                   help="format-4 shard directory to write")
    p.add_argument(
        "--shard-size", type=_positive_int, default=None, metavar="N",
        help="sessions per shard (also: REPRO_SHARD_SIZE; default 512; "
             "sessions are bit-identical for every size)",
    )
    p.add_argument(
        "--scenario", type=_scenario_name, default=None, metavar="NAME",
        help="stream every session over a network-impairment scenario "
             "(see 'repro scenario --list'; "
             "default: identity, the unimpaired pipeline)",
    )
    p.add_argument(
        "--police-rate", type=_positive_float, default=None, metavar="BPS",
        help="override the scenario's token-bucket policer rate, "
             "bits/second (> 0; requires --scenario with a policer stage)",
    )
    p.add_argument(
        "--police-burst", type=_positive_int, default=None, metavar="BYTES",
        help="override the scenario's policer burst size, bytes (>= 1; "
             "requires --scenario with a policer stage)",
    )
    p.add_argument(
        "--queue-bytes", type=_positive_int, default=None, metavar="BYTES",
        help="override the scenario's bottleneck queue capacity, bytes "
             "(>= 1; requires --scenario with a queue stage)",
    )
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser(
        "scenario",
        help="list or describe network-impairment scenarios",
        description="With no arguments (or --list): one line per "
                    "registered scenario. With names: the full "
                    "impairment pipeline of each.",
    )
    p.add_argument("names", nargs="*",
                   help="e.g. policed-2mbps bufferbloat-1mb ...")
    p.add_argument("--list", action="store_true",
                   help="list registered scenarios and exit")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser(
        "workload",
        help="list or describe application workloads",
        description="With no arguments (or --list): one line per "
                    "registered workload. With names: the full "
                    "description and profile list of each.",
    )
    p.add_argument("names", nargs="*", help="e.g. has live rtc")
    p.add_argument("--list", action="store_true",
                   help="list registered workloads and exit")
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser(
        "corpus",
        help="inspect, verify, or re-shard a stored corpus",
        description="info: format/session/label stats of a corpus. "
                    "verify: re-hash every shard against the manifest "
                    "digests. shard: rewrite a corpus with another "
                    "shard size.",
    )
    p.add_argument("action", choices=("info", "verify", "shard"))
    p.add_argument("path", help="format-4 shard directory")
    p.add_argument("-o", "--output", help="target shard directory (action=shard)")
    p.add_argument(
        "--shard-size", type=_positive_int, default=None, metavar="N",
        help="sessions per shard for 'corpus shard' "
             "(default: REPRO_SHARD_SIZE, then 512)",
    )
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("train", help="train a QoE model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", choices=TARGETS, default="combined")
    p.add_argument("--trees", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate via CV or a trained model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", choices=TARGETS, default="combined")
    p.add_argument("--model", help="pickled model from 'train' (else 5-fold CV)")
    p.add_argument("--trees", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("split", help="split a transaction stream into sessions")
    p.add_argument("--transactions", help="JSON: [[start,end,ul,dl,sni],...]")
    p.add_argument("--demo", choices=("svc1", "svc2", "svc3"),
                   help="generate a demo back-to-back stream instead")
    p.add_argument("--demo-sessions", type=_positive_int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=_positive_float, default=3.0,
                   help="boundary lookahead W in seconds (> 0)")
    p.add_argument("--n-min", type=_positive_int, default=2,
                   help="minimum succeeding-burst size (>= 1)")
    p.add_argument("--delta-min", type=_unit_float, default=0.5,
                   help="unseen-server fraction threshold in [0, 1]")
    p.add_argument("--min-transactions", type=_positive_int, default=5)
    p.add_argument("--model", help="optionally score each detected session")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser(
        "stream",
        help="replay a feed through the online streaming detector",
        description="Replay a corpus, a transaction file, or a demo "
                    "workload as a timestamped event stream through "
                    "repro.api.StreamDetector and report the verdicts.",
    )
    p.add_argument("--corpus", help="shard directory (from 'collect') to replay")
    p.add_argument("--transactions", help="JSON: [[start,end,ul,dl,sni],...]")
    p.add_argument("--demo", choices=("svc1", "svc2", "svc3"),
                   help="generate demo per-user streams instead")
    p.add_argument("--streams", type=_positive_int, default=4,
                   help="concurrent user streams to spread the feed over")
    p.add_argument("--demo-sessions", type=_positive_int, default=3,
                   help="sessions per demo stream")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap", type=_nonneg_float, default=4.0,
                   help="idle seconds between corpus sessions on one stream")
    p.add_argument("--window", type=_positive_float, default=3.0,
                   help="boundary lookahead W in seconds (> 0)")
    p.add_argument("--n-min", type=_positive_int, default=2,
                   help="minimum succeeding-burst size (>= 1)")
    p.add_argument("--delta-min", type=_unit_float, default=0.5,
                   help="unseen-server fraction threshold in [0, 1]")
    p.add_argument("--min-transactions", type=_positive_int, default=5)
    p.add_argument("--idle-timeout", type=_positive_float, default=900.0,
                   help="evict streams idle this many event-time seconds")
    p.add_argument("--max-streams", type=_positive_int, default=10_000,
                   help="concurrent-stream cap (stalest evicted first)")
    p.add_argument("--batch", type=_positive_int, default=256,
                   help="replay micro-batch size")
    p.add_argument("--model", help="pickled model from 'train' to score sessions")
    p.add_argument("--batch-check", action="store_true",
                   help="verify streaming verdicts equal the batch "
                        "pipeline bit-for-bit (exit 1 on mismatch); both "
                        "sides share one boundary decider, which the "
                        "test suite checks against an independent oracle")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("experiment", help="run paper experiments by name")
    p.add_argument("names", nargs="*",
                   help="e.g. fig5 table3 overhead ... or 'all'")
    p.add_argument("--list", action="store_true",
                   help="list registered experiments and exit")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("cache", help="inspect or clear the artifact store")
    p.add_argument("action", choices=("info", "clear"))
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("config", help="show the resolved runtime configuration")
    p.add_argument("action", choices=("show",))
    p.set_defaults(func=_cmd_config)

    p = sub.add_parser("trace", help="inspect or compare recorded telemetry traces")
    p.add_argument("action", choices=("report", "validate", "diff"))
    p.add_argument("path", help="JSONL trace file (from --trace or REPRO_TRACE)")
    p.add_argument("other", nargs="?", default=None,
                   help="diff: the second trace, compared against PATH")
    p.add_argument("--top", type=int, default=10,
                   help="hot paths to list in the report (default 10)")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from repro.collection.dataset import DatasetFormatError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs is not None:
            # Export so every layer (corpus collection, forest fits, CV
            # folds, experiment drivers) resolves the same worker count.
            config_mod.set_jobs(args.jobs)
        # Resolved once, up front: a bad --jobs or environment value is
        # a usage error, reported the way the argument validators do.
        config_mod.get_config()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with ExitStack() as stack:
        if args.trace:
            stack.enter_context(
                config_mod.override(
                    "--trace", trace=True, trace_path=Path(args.trace)
                )
            )
        stack.enter_context(telemetry.maybe_tracing())
        stack.enter_context(telemetry.span("command", command=args.command))
        try:
            return args.func(args)
        except DatasetFormatError as exc:
            # A corrupt, incomplete or retired corpus, named by the
            # reader that found it: one error line, whatever the command.
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
