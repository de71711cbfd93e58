"""Telemetry exporters: JSONL, Chrome trace, stats table."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import (Recorder, dump_chrome_trace, dump_metrics_jsonl,
                       export_run, load_metrics_jsonl, stats_table)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer


def loaded_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("controller.ticks").inc(3)
    reg.gauge("cpuset.allowed_cores").set(4)
    h = reg.histogram("db.query_seconds", (0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    return reg


class TestMetricsJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        reg = loaded_registry()
        assert dump_metrics_jsonl(reg, path) == 3
        assert load_metrics_jsonl(path) == reg.snapshot()

    def test_invalid_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("nope\n")
        with pytest.raises(ReproError):
            load_metrics_jsonl(path)
        path.write_text('{"name": "x"}\n')
        with pytest.raises(ReproError):
            load_metrics_jsonl(path)


class TestChromeTraceFile:
    def test_file_is_valid_trace_event_json(self, tmp_path):
        tracer = SpanTracer()
        tracer.add_complete("stage:scan", start=0.5, duration=0.25,
                            tid=3)
        tracer.add_complete("mask", start=1.0, duration=0.0)
        path = tmp_path / "trace.json"
        assert dump_chrome_trace(tracer, path) == 2
        document = json.loads(path.read_text())
        assert set(document) >= {"traceEvents", "displayTimeUnit"}
        events = document["traceEvents"]
        assert events[0]["ph"] == "X" and events[1]["ph"] == "i"
        for event in events:
            assert {"name", "ts", "pid", "tid", "ph"} <= set(event)


class TestExportRun:
    def test_writes_all_four_formats(self, tmp_path):
        rec = Recorder()
        rec.metrics.counter("controller.ticks").inc()
        rec.spans.add_complete("q", 0.0, 1.0)
        paths = export_run(rec, tmp_path / "out")
        assert set(paths) == {"metrics", "trace", "decisions"}
        for path in paths.values():
            assert path.exists()
        assert json.loads(paths["trace"].read_text())["traceEvents"]
        assert [entry["name"] for entry
                in load_metrics_jsonl(paths["metrics"])] == \
            ["controller.ticks"]


class TestStatsTable:
    def test_table_from_registry_and_entries(self, tmp_path):
        reg = loaded_registry()
        text = stats_table(reg)
        assert "controller.ticks" in text
        assert "db.query_seconds" in text
        path = tmp_path / "metrics.jsonl"
        dump_metrics_jsonl(reg, path)
        again = stats_table(load_metrics_jsonl(path))
        # same rows whether summarised live or from disk
        assert text.splitlines()[1:] == again.splitlines()[1:]

    def test_empty_is_graceful(self):
        assert "no metrics" in stats_table([])
