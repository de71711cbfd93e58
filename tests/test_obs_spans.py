"""Span tracing and the Chrome trace_event exporter."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.spans import (NullSpanTracer, SpanRecord, SpanTracer,
                             chrome_trace_events)


class FakeClock:
    """Deterministic host clock for span tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestNestedSpans:
    def test_context_manager_records_duration(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("outer"):
            clock.now = 2.0
        (span,) = tracer.all()
        assert span.name == "outer"
        assert span.start == 0.0
        assert span.duration == 2.0
        assert span.track == "host"

    def test_nesting_depth_recorded(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("outer"):
            with tracer.span("inner"):
                clock.now = 1.0
        inner, outer = tracer.all()
        assert inner.name == "inner" and inner.depth == 1
        assert outer.name == "outer" and outer.depth == 0
        assert outer.end >= inner.end

    def test_unbalanced_end_raises(self):
        with pytest.raises(ReproError):
            SpanTracer().end()

    def test_per_tid_stacks_are_independent(self):
        tracer = SpanTracer(clock=FakeClock())
        tracer.begin("a", tid=1)
        tracer.begin("b", tid=2)
        # each stack nests on its own: neither span sits inside the other
        assert tracer.end(tid=2).depth == 0
        assert tracer.end(tid=1).depth == 0
        with pytest.raises(ReproError):
            tracer.end(tid=1)

    def test_negative_clock_drift_clamped(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        tracer.begin("a")
        clock.now = -1.0
        assert tracer.end().duration == 0.0


class TestSimSpans:
    def test_add_complete_and_instant(self):
        tracer = SpanTracer()
        tracer.add_complete("stage:scan", start=0.5, duration=0.25,
                            tid=7, args={"core": 3})
        tracer.add_complete("mask-change", start=1.0, duration=0.0)
        complete, marker = tracer.all()
        assert complete.track == "sim" and complete.args == {"core": 3}
        assert marker.duration == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ReproError):
            SpanTracer().add_complete("x", start=0.0, duration=-1.0)


class TestChromeExport:
    def test_events_are_valid_trace_event_json(self):
        spans = [
            SpanRecord("q", start=0.5, duration=0.25, track="sim",
                       tid=3, args={"core": 1}),
            SpanRecord("tick", start=0.0, duration=0.0, track="host"),
        ]
        events = chrome_trace_events(spans)
        # must survive a JSON round-trip (the file format)
        parsed = json.loads(json.dumps(events))
        complete, instant = parsed
        assert complete["ph"] == "X"
        assert complete["ts"] == 0.5e6 and complete["dur"] == 0.25e6
        assert complete["pid"] == 2 and complete["tid"] == 3
        assert complete["args"] == {"core": 1}
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert instant["pid"] == 1

    def test_host_and_sim_tracks_get_distinct_pids(self):
        spans = [SpanRecord("a", 0.0, 1.0, track="host"),
                 SpanRecord("b", 0.0, 1.0, track="sim"),
                 SpanRecord("c", 0.0, 1.0, track="custom")]
        pids = [e["pid"] for e in chrome_trace_events(spans)]
        assert pids == [1, 2, 99]
        assert len(set(pids)) == 3

    def test_required_keys_present_on_every_event(self):
        spans = [SpanRecord("a", 0.0, 1.0), SpanRecord("b", 1.0, 0.0)]
        for event in chrome_trace_events(spans):
            assert {"name", "cat", "ts", "pid", "tid", "ph"} <= set(event)


class TestNullTracer:
    def test_span_returns_shared_context(self):
        tracer = NullSpanTracer()
        assert tracer.span("a") is tracer.span("b")
        with tracer.span("a"):
            pass
        tracer.begin("x")
        tracer.end()
        tracer.add_complete("y", 0.0, 1.0)
        assert len(tracer) == 0
        assert tracer.all() == []
        assert not tracer.enabled
