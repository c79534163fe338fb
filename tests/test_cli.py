"""Tests for the command-line interface."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import repro.cli
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.shards"
    assert main(["collect", "--service", "svc3", "-n", "60", "--seed", "3",
                 "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_path):
    path = tmp_path_factory.mktemp("cli-model") / "model.pkl"
    assert main(["train", "--corpus", str(corpus_path), "--trees", "15",
                 "-o", str(path)]) == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_collect_requires_service(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["collect", "-o", "x.json"])


class TestCollect:
    def test_output_file_created(self, corpus_path):
        assert corpus_path.exists()

    def test_collected_corpus_loads(self, corpus_path):
        from repro.collection.dataset import Dataset

        dataset = Dataset.load(corpus_path)
        assert len(dataset) == 60
        assert dataset.service == "svc3"


class TestRegistryListings:
    """``repro scenario`` and ``repro workload`` print the facade's
    listings; the expected text was recorded from the registry-reading
    commands they replaced."""

    def test_workload_list_and_case_insensitive_detail(self, capsys):
        assert main(["workload", "--list"]) == 0
        assert capsys.readouterr().out == (
            "has   On-demand HAS video (the paper's workload)\n"
            "live  Live-HAS video (low-latency, rebuffer-prone)\n"
            "rtc   Real-time video calls (GCC-style congestion control)\n"
        )
        assert main(["workload", "RTC"]) == 0
        assert capsys.readouterr().out == (
            "rtc: Real-time video calls (GCC-style congestion control)\n"
            "  Bidirectional, latency-bound calls (rtc1): send rate tracks estimated "
            "bandwidth with delay-gradient backoff; no playback buffer, so late media "
            "freezes the call and drops frames.\n"
            "  profiles: rtc1\n"
        )

    def test_scenario_list_and_detail(self, capsys):
        from repro.api import list_scenarios

        assert main(["scenario"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [sc["name"] for sc in list_scenarios()]
        assert lines[0].startswith("identity         The polite network of the source paper")
        assert main(["scenario", "policed-2mbps"]) == 0
        assert capsys.readouterr().out == (
            "policed-2mbps: Token-bucket policing at 2 Mbps\n"
            "  A 2 Mbps / 256 KB token-bucket policer that drops excess traffic — the "
            "Flach et al. signature: initial burst at line rate, then a policed trickle "
            "with heavy retransmission.\n"
            "  pipeline: policer(burst_bytes=256000, rate_bps=2000000)\n"
        )

    @pytest.mark.parametrize("kind", ["scenario", "workload"])
    def test_unknown_name_exits_2_naming_every_valid_one(self, capsys, kind):
        from repro.api import list_scenarios, list_workloads

        entries = list_scenarios() if kind == "scenario" else list_workloads()
        names = [entry["name"] for entry in entries]
        assert main([kind, names[-1], "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: unknown {kind} 'nope'; valid {kind}s: {', '.join(names)}\n"
        )


class TestTrainEvaluate:
    def test_model_file_created(self, model_path):
        assert model_path.exists()

    def test_evaluate_with_cv(self, corpus_path, capsys):
        assert main(["evaluate", "--corpus", str(corpus_path), "--trees", "10"]) == 0
        out = capsys.readouterr().out
        assert "cross validation" in out
        assert "accuracy" in out

    def test_evaluate_with_model(self, corpus_path, model_path, capsys):
        assert main([
            "evaluate", "--corpus", str(corpus_path), "--model", str(model_path)
        ]) == 0
        out = capsys.readouterr().out
        assert "model" in out

    def test_model_payload_contents(self, model_path):
        import pickle

        payload = pickle.loads(model_path.read_bytes())
        assert payload["target"] == "combined"
        assert payload["service"] == "svc3"
        assert len(payload["feature_names"]) == 38

    def test_trained_model_matches_the_facade(self, corpus_path, model_path):
        import pickle

        from repro.experiments.common import default_forest_config

        dataset = repro.load_corpus(corpus_path)
        X, _ = repro.extract_features(dataset)
        facade = repro.train_model(
            X, dataset.labels("combined"), model=default_forest_config(15, 0)
        )
        cli_model = pickle.loads(model_path.read_bytes())["model"]
        np.testing.assert_array_equal(
            cli_model.predict_proba(X), facade.predict_proba(X)
        )


class TestFacadeLayer:
    """The data commands orchestrate through repro.api, never around it:
    one collector, one set of forest parameters."""

    #: Pipeline entry points the CLI may only reach through repro.api.
    BYPASSES = {
        "collect_corpus",
        "extract_tls_matrix",
        "RandomForestClassifier",
        "cross_validate",
        "split_sessions",
    }

    def test_cli_imports_pipeline_entry_points_only_from_the_facade(self):
        tree = ast.parse(Path(repro.cli.__file__).read_text(encoding="utf-8"))
        offenders = [
            f"line {node.lineno}: {alias.name} from {node.module}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module != "repro.api"
            for alias in node.names
            if alias.name in self.BYPASSES
        ]
        assert offenders == []


class TestSplit:
    def test_demo_split(self, capsys):
        assert main(["split", "--demo", "svc1", "--demo-sessions", "4",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out

    def test_split_requires_input(self, capsys):
        assert main(["split"]) == 2

    def test_split_from_file(self, tmp_path, capsys):
        rows = [
            [0.0, 5.0, 1000, 100000, "www.svc1.example"],
            [0.5, 6.0, 1000, 500000, "edge0001.cdn.svc1.example"],
            [1.0, 8.0, 1000, 500000, "edge0002.cdn.svc1.example"],
        ]
        path = tmp_path / "stream.json"
        path.write_text(json.dumps(rows))
        assert main(["split", "--transactions", str(path),
                     "--min-transactions", "1"]) == 0
        out = capsys.readouterr().out
        assert "session 1" in out

    def test_split_with_model_scores_sessions(self, model_path, capsys):
        assert main(["split", "--demo", "svc3", "--demo-sessions", "3",
                     "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "estimated QoE" in out


class TestArgumentValidation:
    """Out-of-range knobs die with a friendly argparse message (exit
    code 2), not a traceback from deep inside the pipeline."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["split", "--demo", "svc1", "--window", "0"],
            ["split", "--demo", "svc1", "--window", "-2"],
            ["split", "--demo", "svc1", "--n-min", "-3"],
            ["split", "--demo", "svc1", "--n-min", "0"],
            ["split", "--demo", "svc1", "--delta-min", "1.5"],
            ["split", "--demo", "svc1", "--delta-min", "-0.1"],
            ["split", "--demo", "svc1", "--min-transactions", "0"],
            ["split", "--demo", "svc1", "--demo-sessions", "0"],
            ["stream", "--demo", "svc1", "--window", "0"],
            ["stream", "--demo", "svc1", "--n-min", "0"],
            ["stream", "--demo", "svc1", "--delta-min", "2"],
            ["stream", "--demo", "svc1", "--idle-timeout", "0"],
            ["stream", "--demo", "svc1", "--max-streams", "0"],
            ["stream", "--demo", "svc1", "--streams", "0"],
            ["stream", "--demo", "svc1", "--batch", "0"],
            ["stream", "--demo", "svc1", "--gap", "-1"],
            ["stream", "--demo", "svc1", "--window", "huh"],
        ],
    )
    def test_out_of_range_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err
        assert "Traceback" not in err

    def test_message_names_the_constraint(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["split", "--demo", "svc1",
                                       "--delta-min", "1.5"])
        assert "[0, 1]" in capsys.readouterr().err


class TestSplitDegenerateInputs:
    def test_empty_transaction_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["split", "--transactions", str(path)]) == 0
        assert "detected 0 sessions" in capsys.readouterr().out

    def test_single_transaction_file(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps([[0.0, 1.0, 100, 1000, "www"]]))
        assert main(["split", "--transactions", str(path)]) == 0
        assert "session 1: 1 transactions" in capsys.readouterr().out

    def test_invalid_json_is_a_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["split", "--transactions", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err

    def test_wrong_row_shape_is_a_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps([[1.0, 2.0]]))
        assert main(["split", "--transactions", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[start, end, uplink, downlink, sni]" in err

    def test_missing_file_is_a_friendly_error(self, tmp_path, capsys):
        assert main(["split", "--transactions",
                     str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_nan_row_is_a_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('[[0.0, 1.0, 100, 1000, "www"], [NaN, 2.0, 100, 1000, "edge"]]')
        assert main(["split", "--transactions", str(path)]) == 2
        assert "row 1: start must be finite" in capsys.readouterr().err


class TestStreamCommand:
    def test_requires_input(self, capsys):
        assert main(["stream"]) == 2
        assert "--demo" in capsys.readouterr().err

    def test_demo_replay_with_batch_check(self, capsys):
        assert main(["stream", "--demo", "svc1", "--streams", "2",
                     "--demo-sessions", "2", "--seed", "4",
                     "--batch-check"]) == 0
        out = capsys.readouterr().out
        assert "session verdicts" in out
        assert "batch equivalence: OK" in out

    def test_corpus_replay_with_model(self, corpus_path, model_path, capsys):
        assert main(["stream", "--corpus", str(corpus_path),
                     "--streams", "3", "--model", str(model_path),
                     "--batch-check"]) == 0
        out = capsys.readouterr().out
        assert "estimated QoE" in out
        assert "batch equivalence: OK" in out

    def test_empty_feed_is_well_defined(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["stream", "--transactions", str(path)]) == 0
        assert "0 session verdicts" in capsys.readouterr().out

    def test_trace_records_stream_spans(self, tmp_path, capsys):
        from repro import telemetry

        trace = tmp_path / "stream.jsonl"
        assert main(["--trace", str(trace), "stream", "--demo", "svc3",
                     "--streams", "2", "--demo-sessions", "2",
                     "--batch-check"]) == 0
        events = telemetry.validate_trace(trace)
        spans = {e["name"] for e in events if e.get("type") == "span"}
        assert {"command", "stream.ingest", "stream.score"} <= spans
        counters = {
            e["name"] for e in events if e.get("type") == "counter"
        }
        assert {"stream.ingested", "stream.scored"} <= counters


class TestExperimentCommand:
    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "not_a_real_one"]) == 2

    def test_named_experiment_runs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
