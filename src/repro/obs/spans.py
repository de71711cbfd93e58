"""Span tracing: nested begin/end intervals, exportable as Chrome traces.

Two time domains coexist in one trace:

* **host** spans measure real pipeline cost (the controller's
  sample -> evaluate -> fire -> apply stages) on the process clock;
* **sim** spans place query and plan-stage execution on the simulated
  clock, where durations are the modelled ones.

Both kinds collect into flat :class:`SpanRecord` lists; the Chrome
``trace_event`` exporter maps each domain to its own ``pid`` so Perfetto
and ``chrome://tracing`` render them as separate process tracks and never
mix the clocks on one row.

Host-side begin/end pairs nest per ``(track, tid)`` — unbalanced ``end``
calls raise, so a dropped span is a bug, not silent data loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ReproError

#: track names -> Chrome pid; anything else gets pid 99
TRACK_PIDS = {"host": 1, "sim": 2}


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed interval on one track."""

    name: str
    start: float
    duration: float
    track: str = "host"
    tid: int = 0
    depth: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """Interval end time (same clock as ``start``)."""
        return self.start + self.duration


class _OpenSpan:
    __slots__ = ("name", "start", "args")

    def __init__(self, name: str, start: float, args: dict | None):
        self.name = name
        self.start = start
        self.args = args


class _SpanContext:
    """Context-manager handle returned by :meth:`SpanTracer.span`."""

    __slots__ = ("tracer", "name", "tid", "args")

    def __init__(self, tracer: "SpanTracer", name: str, tid: int,
                 args: dict | None):
        self.tracer = tracer
        self.name = name
        self.tid = tid
        self.args = args

    def __enter__(self) -> "_SpanContext":
        self.tracer.begin(self.name, tid=self.tid, args=self.args)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.end(tid=self.tid)


class SpanTracer:
    """Collects spans; host-side nesting driven by ``clock``.

    ``clock`` is any zero-argument callable returning seconds; the
    recorder wires in ``time.perf_counter`` so reproducibility-critical
    zones never import a host clock themselves.
    """

    enabled = True

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._records: list[SpanRecord] = []
        self._open: dict[int, list[_OpenSpan]] = {}

    # -- host-time nested spans ----------------------------------------

    def span(self, name: str, tid: int = 0,
             args: dict | None = None) -> _SpanContext:
        """``with tracer.span("controller.fire"): ...``"""
        return _SpanContext(self, name, tid, args)

    def begin(self, name: str, tid: int = 0,
              args: dict | None = None) -> None:
        """Open a nested host-time span."""
        stack = self._open.setdefault(tid, [])
        stack.append(_OpenSpan(name, self.clock(), args))

    def end(self, tid: int = 0) -> SpanRecord:
        """Close the innermost open span on ``tid``."""
        stack = self._open.get(tid)
        if not stack:
            raise ReproError(f"end() with no open span on tid {tid}")
        top = stack.pop()
        record = SpanRecord(
            name=top.name, start=top.start,
            duration=max(self.clock() - top.start, 0.0),
            track="host", tid=tid, depth=len(stack),
            args=top.args or {})
        self._records.append(record)
        return record

    # -- sim-time complete spans ---------------------------------------

    def add_complete(self, name: str, start: float, duration: float,
                     track: str = "sim", tid: int = 0,
                     args: dict | None = None) -> None:
        """Record an already-measured interval (simulated time)."""
        if duration < 0:
            raise ReproError(f"span {name!r} has negative duration")
        self._records.append(SpanRecord(
            name=name, start=start, duration=duration, track=track,
            tid=tid, args=args or {}))

    # -- retrieval ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def all(self) -> list[SpanRecord]:
        """Every completed span, in completion order."""
        return list(self._records)

    def clear(self) -> None:
        """Drop completed spans (open stacks are preserved)."""
        self._records.clear()


def chrome_trace_events(spans) -> list[dict]:
    """Render spans as Chrome ``trace_event`` dicts.

    Duration spans become ``ph: "X"`` complete events, zero-duration
    markers become ``ph: "i"`` instants; timestamps are microseconds.
    Each track maps to its own ``pid`` so host and simulated clocks stay
    on separate process rows.
    """
    events: list[dict] = []
    for span in spans:
        pid = TRACK_PIDS.get(span.track, 99)
        event: dict[str, Any] = {
            "name": span.name,
            "cat": span.track,
            "ts": span.start * 1e6,
            "pid": pid,
            "tid": span.tid,
        }
        if span.duration > 0:
            event["ph"] = "X"
            event["dur"] = span.duration * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    return events


class _NullSpanContext:
    """Shared no-op span handle."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_CONTEXT = _NullSpanContext()


class NullSpanTracer:
    """No-op tracer: ``span()`` hands back one shared context manager."""

    enabled = False

    def span(self, name: str, tid: int = 0,
             args: dict | None = None) -> _NullSpanContext:
        return _NULL_CONTEXT

    def begin(self, name: str, tid: int = 0,
              args: dict | None = None) -> None:
        """Discard the span."""

    def end(self, tid: int = 0) -> None:
        """Discard the span."""

    def add_complete(self, name: str, start: float, duration: float,
                     track: str = "sim", tid: int = 0,
                     args: dict | None = None) -> None:
        """Discard the span."""

    def __len__(self) -> int:
        return 0

    def all(self) -> list[SpanRecord]:
        return []

    def clear(self) -> None:
        """Nothing to drop."""
