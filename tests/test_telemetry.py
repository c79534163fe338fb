"""Tests for the telemetry layer (spans, metrics, traces, merging)."""

import numpy as np
import pytest

from repro import telemetry
from repro.ml.forest import RandomForestClassifier
from repro.parallel import parallel_map
from repro.telemetry import (
    NOOP_SPAN,
    TRACE_SCHEMA_VERSION,
    TraceValidationError,
    active_tracer,
    read_trace,
    render_report,
    span,
    subtrace,
    tracing,
    validate_trace,
)


class TestDisabledMode:
    def test_span_returns_the_noop_singleton(self):
        assert active_tracer() is None
        assert span("anything", attr=1) is NOOP_SPAN
        assert span("other") is NOOP_SPAN

    def test_noop_span_contextmanager_and_set(self):
        with span("stage") as sp:
            assert sp is NOOP_SPAN
            assert sp.set(rows=3) is NOOP_SPAN

    def test_noop_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with span("stage"):
                raise RuntimeError("boom")

    def test_metrics_are_noops(self):
        telemetry.count("c", 5)
        telemetry.gauge("g", 1.0)
        telemetry.observe("h", 2.0)
        assert active_tracer() is None

    def test_noop_mode_emits_nothing(self, tmp_path):
        # A traced block around the same calls *does* record — the
        # contrast proves disabled mode truly drops everything.
        with span("outer"):
            telemetry.count("c")
        with tracing() as tracer:
            with span("outer"):
                telemetry.count("c")
        assert len(tracer.events) == 1
        assert tracer.counters == {"c": 1}


class TestSpans:
    def test_nesting_records_parent_ids(self):
        with tracing() as tracer:
            with span("a"):
                with span("b"):
                    with span("c"):
                        pass
                with span("d"):
                    pass
        by_name = {e["name"]: e for e in tracer.events}
        assert by_name["a"]["parent"] is None
        assert by_name["b"]["parent"] == by_name["a"]["id"]
        assert by_name["c"]["parent"] == by_name["b"]["id"]
        assert by_name["d"]["parent"] == by_name["a"]["id"]

    def test_attrs_and_set(self):
        with tracing() as tracer:
            with span("stage", service="svc1", n=3) as sp:
                sp.set(rows=7)
        (event,) = tracer.events
        assert event["attrs"] == {"service": "svc1", "n": 3, "rows": 7}

    def test_timings_are_recorded(self):
        with tracing() as tracer:
            with span("stage"):
                sum(range(10_000))
        (event,) = tracer.events
        assert event["wall_s"] >= 0.0
        assert event["cpu_s"] >= 0.0

    def test_error_is_recorded_and_propagates(self):
        with pytest.raises(ValueError):
            with tracing() as tracer:
                with span("stage"):
                    raise ValueError("boom")
        (event,) = tracer.events
        assert event["error"] == "ValueError"

    def test_non_json_attrs_are_coerced(self):
        with tracing() as tracer:
            with span("stage", path=object(), shape=(2, 3)):
                pass
        attrs = tracer.events[0]["attrs"]
        assert isinstance(attrs["path"], str)
        assert attrs["shape"] == [2, 3]

    def test_tracing_is_reentrant(self, tmp_path):
        inner_path = tmp_path / "inner.jsonl"
        with tracing() as outer:
            with tracing(inner_path) as inner:
                assert inner is outer
                with span("stage"):
                    pass
        # The nested session neither owns nor flushes the trace.
        assert not inner_path.exists()
        assert outer.events[0]["name"] == "stage"


class TestMetrics:
    def test_counters_accumulate(self):
        with tracing() as tracer:
            telemetry.count("n")
            telemetry.count("n", 4)
        assert tracer.counters == {"n": 5}

    def test_gauges_last_write_wins(self):
        with tracing() as tracer:
            telemetry.gauge("g", 1)
            telemetry.gauge("g", 9)
        assert tracer.gauges == {"g": 9.0}

    def test_histograms_summarize(self):
        with tracing() as tracer:
            for v in (2.0, 5.0, 3.0):
                telemetry.observe("h", v)
        assert tracer.hists == {"h": [3, 10.0, 2.0, 5.0]}


class TestJsonlRoundTrip:
    def test_flush_validate_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing(path):
            with span("root", service="svc1"):
                with span("child"):
                    telemetry.count("things", 3)
                    telemetry.gauge("level", 0.5)
                    telemetry.observe("sizes", 10.0)
        events = validate_trace(path)
        meta = events[0]
        assert meta["version"] == TRACE_SCHEMA_VERSION
        kinds = [e["type"] for e in events]
        assert kinds == ["meta", "span", "span", "counter", "gauge", "hist"]
        # Spans flush in completion order: child closes before root.
        assert [e["name"] for e in events if e["type"] == "span"] == [
            "child",
            "root",
        ]

    def test_flush_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing(path):
            with span("s"):
                pass
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_read_trace_matches_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing(path) as tracer:
            with span("s"):
                pass
            expected_spans = list(tracer.events)
        events = read_trace(path)
        assert [e for e in events if e["type"] == "span"] == expected_spans

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([], "empty"),
            (['{"type": "span"}'], "meta"),
            (['{"type": "meta", "version": 99, "wall_s": 1.0}'], "version"),
            (
                [
                    '{"type": "meta", "version": 1, "wall_s": 1.0}',
                    '{"type": "span", "id": 1, "parent": 7, "name": "x",'
                    ' "t0": 0.0, "wall_s": 0.0, "cpu_s": 0.0}',
                ],
                "parent",
            ),
            (
                [
                    '{"type": "meta", "version": 1, "wall_s": 1.0}',
                    '{"type": "counter", "name": "c", "value": "NaN?"}',
                ],
                "counter",
            ),
            (
                [
                    '{"type": "meta", "version": 1, "wall_s": 1.0}',
                    '{"type": "mystery"}',
                ],
                "unknown",
            ),
        ],
    )
    def test_validate_rejects_malformed(self, tmp_path, lines, message):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceValidationError, match=message):
            validate_trace(path)


def _traced_square(x):
    with telemetry.span("worker_stage", item=x):
        telemetry.count("worker.calls")
        telemetry.observe("worker.values", x)
    return x * x


class TestWorkerMerge:
    def test_counter_merge_across_parallel_workers(self):
        items = list(range(12))
        with tracing() as tracer:
            with span("fanout"):
                results = parallel_map(_traced_square, items, n_jobs=3)
        assert results == [x * x for x in items]
        assert tracer.counters["worker.calls"] == len(items)
        count, total, lo, hi = tracer.hists["worker.values"]
        assert (count, total, lo, hi) == (12, float(sum(items)), 0.0, 11.0)

    def test_worker_spans_reparent_under_open_span(self):
        with tracing() as tracer:
            with span("fanout") as fanout:
                parallel_map(_traced_square, list(range(8)), n_jobs=2)
        worker_events = [e for e in tracer.events if e.get("worker")]
        assert len(worker_events) == 8
        assert {e["parent"] for e in worker_events} == {fanout.span_id}
        # Merged ids must not collide with parent-side ids.
        ids = [e["id"] for e in tracer.events]
        assert len(ids) == len(set(ids))

    def test_merged_trace_validates(self, tmp_path):
        path = tmp_path / "merged.jsonl"
        with tracing(path):
            with span("fanout"):
                parallel_map(_traced_square, list(range(6)), n_jobs=2)
        validate_trace(path)

    def test_sequential_path_records_directly(self):
        with tracing() as tracer:
            with span("fanout"):
                parallel_map(_traced_square, [1, 2], n_jobs=1)
        assert tracer.counters["worker.calls"] == 2
        assert not any(e.get("worker") for e in tracer.events)

    def test_subtrace_restores_previous_tracer(self):
        with tracing() as outer:
            with subtrace() as inner:
                assert active_tracer() is inner
                telemetry.count("inner.only")
            assert active_tracer() is outer
        assert "inner.only" not in outer.counters


class TestMlSpans:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_forest_fit_reports_binning_growth_and_prediction(self, n_jobs):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 6))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        with tracing() as tracer:
            forest = RandomForestClassifier(
                n_estimators=10, random_state=0, n_jobs=n_jobs
            ).fit(X, y)
            forest.predict(X)
        sizes = [tree.n_nodes for tree in forest.trees_]
        assert tracer.counters["ml.grow.trees"] == 10
        assert tracer.counters["ml.grow.nodes"] == sum(sizes)
        # One batch per worker; a batch steps until its largest tree is
        # grown (one node of every unfinished tree per step).
        batches = [sizes] if n_jobs == 1 else [sizes[:5], sizes[5:]]
        assert tracer.counters["ml.grow.steps"] == sum(map(max, batches))
        names = [e["name"] for e in tracer.events]
        assert names.count("ml.bin") == 1
        assert names.count("ml.grow") == len(batches)
        assert names.count("ml.predict") == 1
        grown = [e["attrs"] for e in tracer.events if e["name"] == "ml.grow"]
        assert sum(a["nodes"] for a in grown) == sum(sizes)


class TestReport:
    def _sample_trace(self, tmp_path):
        import time

        path = tmp_path / "trace.jsonl"
        with tracing(path):
            with span("experiment", name="fig5"):
                with span("artifact", stage="corpus"):
                    telemetry.count("cache.corpus.hit", 2)
                    telemetry.count("cache.corpus.miss", 1)
                with span("cv", folds=5):
                    # Give the tree measurable weight so the top-level
                    # span dominates the tracer's own lifetime.
                    time.sleep(0.05)
        return path

    def test_report_contains_tree_cache_and_coverage(self, tmp_path):
        report = render_report(self._sample_trace(tmp_path))
        assert "experiment[fig5]" in report
        assert "artifact[corpus]" in report
        assert "corpus" in report and "66.7% hit" in report
        assert "top-level spans cover" in report

    def test_report_top_level_coverage_is_high(self, tmp_path):
        report = render_report(self._sample_trace(tmp_path))
        (line,) = [
            l for l in report.splitlines() if l.startswith("top-level spans cover")
        ]
        coverage = float(line.split("cover ")[1].split("%")[0])
        assert coverage >= 95.0

    def test_cli_trace_subcommands(self, tmp_path, capsys):
        from repro.cli import main

        path = self._sample_trace(tmp_path)
        assert main(["trace", "validate", str(path)]) == 0
        assert "valid trace" in capsys.readouterr().out
        assert main(["trace", "report", str(path), "--top", "2"]) == 0
        assert "hot paths" in capsys.readouterr().out

    def test_cli_trace_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\n')
        assert main(["trace", "validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err
