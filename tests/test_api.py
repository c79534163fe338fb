"""Tests for the stable ``repro.api`` facade and the package exports."""

import contextlib
import importlib
import inspect
import io
import re
import warnings

import numpy as np
import pytest

import repro
import repro.api as api
from repro import telemetry
from repro.config import get_config, override


@pytest.fixture(scope="module")
def small_corpus():
    return api.collect_corpus("svc3", n_sessions=24, seed=5, jobs=1)


class TestSignatures:
    def test_facade_exports_the_supported_surface(self):
        assert api.__all__ == [
            "StreamConfig",
            "StreamDetector",
            "StreamVerdict",
            "collect_corpus",
            "cross_validate",
            "detect_sessions",
            "extract_features",
            "list_scenarios",
            "list_workloads",
            "load_corpus",
            "run_experiment",
            "train_model",
        ]

    @pytest.mark.parametrize(
        "name",
        [
            n
            for n in api.__all__
            if n != "run_experiment" and not inspect.isclass(getattr(api, n))
        ],
    )
    def test_options_are_keyword_only(self, name):
        params = list(inspect.signature(getattr(api, name)).parameters.values())
        if not params:  # zero-arg entry points (list_scenarios) are fine
            return
        # Leading parameters carry the data; every *option* (anything
        # with a default) is keyword-only — the facade's
        # forward-compatibility contract.
        assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert params[0].default is inspect.Parameter.empty
        for param in params:
            if param.default is not inspect.Parameter.empty:
                assert param.kind is inspect.Parameter.KEYWORD_ONLY, param.name

    def test_every_entry_point_is_documented(self):
        for name in api.__all__:
            doc = getattr(api, name).__doc__
            assert doc and len(doc.splitlines()) > 1, name

    def test_stream_detector_options_are_keyword_only(self):
        params = list(
            inspect.signature(api.StreamDetector.__init__).parameters.values()
        )
        for param in params[2:]:  # after self, model
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, param.name

    def test_package_reexports_facade_lazily(self):
        assert repro.collect_corpus is api.collect_corpus
        assert repro.extract_features is api.extract_features
        assert repro.StreamDetector is api.StreamDetector
        assert repro.get_config is get_config
        assert "train_model" in dir(repro)
        assert "StreamDetector" in dir(repro)
        with pytest.raises(AttributeError):
            repro.no_such_name


class TestFacadeBehaviour:
    def test_collect_extract_train_evaluate(self, small_corpus):
        X, names = api.extract_features(small_corpus)
        assert X.shape == (24, len(names))
        y = small_corpus.labels("combined")
        model = api.train_model(X, y)
        assert model.predict(X).shape == y.shape
        report = api.cross_validate(X, y, n_splits=2, jobs=1)
        assert 0.0 <= report.accuracy <= 1.0

    def test_extract_features_kinds_agree_with_deep_modules(self, small_corpus):
        from repro.features.packet_features import extract_ml16_matrix
        from repro.netflow.features import extract_flow_matrix

        X, names = api.extract_features(small_corpus, kind="ml16", seed=3)
        Xd, named = extract_ml16_matrix(small_corpus, seed=3)
        assert names == named and np.array_equal(X, Xd)
        X, names = api.extract_features(small_corpus, kind="flow")
        Xd, named = extract_flow_matrix(small_corpus)
        assert names == named and np.array_equal(X, Xd)

    def test_extract_features_rejects_unknown_kind(self, small_corpus):
        with pytest.raises(ValueError, match="unknown feature kind"):
            api.extract_features(small_corpus, kind="dns")

    def test_cross_validate_accepts_model_config(self, small_corpus):
        X, _ = api.extract_features(small_corpus)
        y = small_corpus.labels("combined")
        report = api.cross_validate(
            X, y, model={"kind": "knn", "n_neighbors": 3}, n_splits=2, jobs=1
        )
        assert 0.0 <= report.accuracy <= 1.0

    def test_detect_sessions_matches_boundary_module(self, small_corpus):
        from repro.sessions.boundary import split_sessions
        from repro.sessions.workload import back_to_back_stream

        stream = back_to_back_stream("svc3", 3, seed=2)
        transactions = list(stream.transactions)
        assert api.detect_sessions(transactions, min_transactions=5) == (
            split_sessions(transactions, min_transactions=5)
        )

    def test_detect_sessions_degenerate_inputs(self):
        from repro.tlsproxy.records import TlsTransaction

        assert api.detect_sessions([]) == []
        t = TlsTransaction(
            start=0.0, end=1.0, uplink_bytes=100, downlink_bytes=1000, sni="www"
        )
        assert api.detect_sessions([t], min_transactions=5) == [[t]]
        with pytest.raises(ValueError, match="min_transactions"):
            api.detect_sessions([t], min_transactions=0)

    def test_extract_features_names_empty_sessions(self, small_corpus):
        from repro.features.tls_features import extract_tls_matrix
        from repro.tlsproxy.table import TransactionTable

        table = TransactionTable(
            start=np.array([0.0]),
            end=np.array([1.0]),
            uplink=np.array([10.0]),
            downlink=np.array([100.0]),
            offsets=np.array([0, 1, 1]),  # session 1 owns zero rows
            sni=("www",),
        )
        with pytest.raises(ValueError, match="session 1 has no TLS transactions"):
            extract_tls_matrix(table)

    def test_run_experiment_rejects_unknown_name(self):
        from repro.experiments.registry import UnknownExperimentError

        with pytest.raises(UnknownExperimentError):
            api.run_experiment("fig99")


class TestPackageExports:
    """A package's ``__all__`` names only what importing it binds — no
    name resolved lazily on first access."""

    @pytest.mark.parametrize(
        "package",
        [
            "repro.collection",
            "repro.features",
            "repro.has",
            "repro.ml",
            "repro.netflow",
            "repro.sessions",
        ],
    )
    def test_all_names_bound_on_import(self, package):
        module = importlib.import_module(package)
        assert [n for n in module.__all__ if n not in vars(module)] == []


class TestDeprecationShims:
    def test_unknown_attribute_still_raises(self):
        import repro.collection

        with pytest.raises(AttributeError, match="no attribute"):
            repro.collection.not_a_thing

    def test_deep_import_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.collection.harness import collect_corpus  # noqa: F401
            from repro.ml.model_selection import cross_validate  # noqa: F401
            from repro.sessions.boundary import split_sessions  # noqa: F401


class TestTraceTransparency:
    """Telemetry must never change results — only record them."""

    def test_pipeline_outputs_bit_identical_with_tracing(self, tmp_path):
        def pipeline():
            dataset = api.collect_corpus("svc3", n_sessions=16, seed=9, jobs=2)
            X, _ = api.extract_features(dataset)
            report = api.cross_validate(
                X, dataset.labels("combined"), n_splits=2, jobs=2
            )
            return X, report

        X_off, report_off = pipeline()
        with telemetry.tracing(tmp_path / "trace.jsonl"):
            X_on, report_on = pipeline()
        assert X_on.tobytes() == X_off.tobytes()
        assert report_on.accuracy == report_off.accuracy
        assert np.array_equal(report_on.confusion, report_off.confusion)
        telemetry.validate_trace(tmp_path / "trace.jsonl")

    @pytest.mark.skipif(
        not get_config().smoke,
        reason="slow full-suite comparison; set REPRO_SMOKE=1 to run",
    )
    def test_run_all_output_identical_with_tracing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        from repro.experiments import run_all

        # Wall-clock measurements (run_all's "done in"/"Total:" footers
        # and the overhead/table4 timing rows, which re-measure every
        # run) legitimately differ between runs; everything else must
        # not.
        nondeterministic = re.compile(
            r"done in|^Total:|\d\.\d+\s*s\b|compute ratio"
        )

        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run_all.main(argv)
            return [
                line
                for line in out.getvalue().splitlines()
                if not nondeterministic.search(line)
            ]

        plain = run([])
        traced = run(["--trace", str(tmp_path / "run_all.jsonl")])
        assert traced == plain
        telemetry.validate_trace(tmp_path / "run_all.jsonl")

    def test_cli_trace_flag_writes_a_validating_trace(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "c.shards"
        trace = tmp_path / "collect.jsonl"
        assert main(["--trace", str(trace), "collect", "--service", "svc3",
                     "-n", "12", "--seed", "1", "-o", str(corpus)]) == 0
        events = telemetry.validate_trace(trace)
        names = {e["name"] for e in events if e.get("type") == "span"}
        assert {"command", "collect_corpus"} <= names
        counters = {e["name"] for e in events if e.get("type") == "counter"}
        assert "collection.sessions" in counters
