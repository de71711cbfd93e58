"""The recorder facade: one object carrying a run's telemetry sinks.

Instrumented components take a :class:`Recorder` (usually via
``OperatingSystem.obs``) and talk to its three parts — ``metrics``,
``spans`` and ``decisions``.  The :class:`NullRecorder` is the disabled
twin: every sink is a shared no-op, and ``enabled`` is ``False`` so the
few sites that build argument dicts can skip the work entirely.

Telemetry is off by default.  Either pass a recorder explicitly
(``build_system(obs=Recorder())``) or install one process-wide for code
you cannot thread it through (the CLI's ``--telemetry`` flag does this)::

    with recording(Recorder()) as rec:
        fig07_state_transitions.run(...)
    print(stats_table(rec.metrics))

The host clock lives *here*, outside the determinism-critical zones:
``core``/``sim``/``opsys`` components never import ``time`` themselves,
they measure through ``recorder.spans``.  A host-clock read that
reached a scheduling decision would show up as a golden-trace
divergence.
"""

from __future__ import annotations

import contextlib
import time

from .metrics import MetricsRegistry, NullMetricsRegistry
from .provenance import DecisionLog, NullDecisionLog
from .spans import NullSpanTracer, SpanTracer


class Recorder:
    """Live telemetry: a metrics registry, a span tracer, a decision log."""

    enabled = True

    def __init__(self, clock=None):
        self.metrics = MetricsRegistry()
        self.spans = SpanTracer(
            clock=clock if clock is not None else time.perf_counter)
        self.decisions = DecisionLog()

    def clear(self) -> None:
        """Drop spans and decisions (metrics are cumulative and stay)."""
        self.spans.clear()
        self.decisions.clear()


class NullRecorder:
    """Disabled telemetry: every sink is a shared no-op singleton."""

    enabled = False

    def __init__(self) -> None:
        self.metrics = NullMetricsRegistry()
        self.spans = NullSpanTracer()
        self.decisions = NullDecisionLog()

    def clear(self) -> None:
        """Nothing to drop."""


#: the process-wide disabled recorder; components default to this
NULL_RECORDER = NullRecorder()

_installed: Recorder | None = None


def install(recorder: Recorder) -> Recorder:
    """Make ``recorder`` the process-wide default for new systems.

    Components built afterwards (``OperatingSystem`` without an explicit
    ``obs`` argument) record into it.  Returns the recorder.
    """
    global _installed
    _installed = recorder
    return recorder


def uninstall() -> None:
    """Remove the installed recorder; new systems fall back to null."""
    global _installed
    _installed = None


def current_recorder():
    """The installed recorder, or :data:`NULL_RECORDER`."""
    return _installed if _installed is not None else NULL_RECORDER


@contextlib.contextmanager
def recording(recorder: Recorder | None = None):
    """Install a recorder for the duration of a ``with`` block."""
    recorder = recorder if recorder is not None else Recorder()
    install(recorder)
    try:
        yield recorder
    finally:
        uninstall()
