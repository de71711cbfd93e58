"""Bench: the disabled-telemetry fast path stays within noise.

The instrumentation hooks are compiled into the controller, scheduler
and engine hot paths, so there is no uninstrumented build to time
against.  The 5 % bound is established analytically instead:

* time one workload with telemetry disabled (the ``NullRecorder``
  default — instruments are shared no-op singletons);
* run the same workload with telemetry *enabled* and count every
  recording call it made (counter increments, histogram observations,
  gauge sets, spans, decisions);
* measure the per-call cost of the no-op instruments over a million
  calls;
* the disabled run's telemetry cost is then bounded by
  ``calls x per_call`` and must stay under 5 % of its runtime.
"""

import time

from repro.analysis.report import render_table
from repro.db.clients import repeat_stream
from repro.experiments.common import build_system
from repro.obs import NULL_RECORDER, Recorder
from repro.obs.metrics import Counter, Histogram

WORKLOAD = dict(engine="morsel", mode="adaptive", scale=0.004,
                sim_scale=0.125)
N_CLIENTS, REPETITIONS = 4, 2
CALLS = 1_000_000


def run_workload(recorder=None) -> float:
    """One fixed workload; returns host seconds spent."""
    start = time.perf_counter()
    sut = build_system(obs=recorder, **WORKLOAD)
    sut.run_clients(N_CLIENTS, repeat_stream("q6", REPETITIONS))
    return time.perf_counter() - start


def per_call_cost(fn) -> float:
    start = time.perf_counter()
    for _ in range(CALLS):
        fn()
    return (time.perf_counter() - start) / CALLS


def recording_calls(recorder: Recorder) -> float:
    """Upper bound on recording calls an enabled run performed.

    Counter values over-count (``inc(n)`` is one call) and gauge sets
    are bounded by ticks + mask changes; the x2 margin swallows both
    approximations in the conservative direction.
    """
    metrics = recorder.metrics
    counts = 0.0
    for instrument in metrics.all():
        if isinstance(instrument, Counter):
            counts += instrument.value
        elif isinstance(instrument, Histogram):
            counts += instrument.count
    counts += 2 * len(recorder.spans.all())   # begin + end
    counts += len(recorder.decisions.all())
    return 2.0 * counts


def test_null_recorder_overhead(once, record_result):
    t_disabled = once(run_workload)          # NullRecorder default

    enabled = Recorder()
    t_enabled = run_workload(enabled)
    calls = recording_calls(enabled)

    null_metrics = NULL_RECORDER.metrics
    null_counter = null_metrics.counter("x")
    null_histogram = null_metrics.histogram("x")
    null_spans = NULL_RECORDER.spans
    per_call = max(
        per_call_cost(null_counter.inc),
        per_call_cost(lambda: null_histogram.observe(0.0)),
        per_call_cost(lambda: null_spans.add_complete("x", 0.0, 0.0)))

    bound = calls * per_call
    share = bound / t_disabled

    record_result("obs_overhead", render_table(
        ["quantity", "value"],
        [["disabled run (s)", t_disabled],
         ["enabled run (s)", t_enabled],
         ["recording calls (bound)", calls],
         ["no-op cost (ns/call)", per_call * 1e9],
         ["telemetry bound (s)", bound],
         ["share of disabled run", share]],
        title="disabled-telemetry overhead bound"))

    assert calls > 0, "enabled run recorded nothing"
    # the acceptance bound: disabled telemetry within 5 % of an
    # uninstrumented baseline
    assert share < 0.05, (
        f"null-path bound {share:.2%} of runtime exceeds 5%")


def test_null_instruments_are_shared_singletons():
    """The fast path hands out one shared no-op per instrument kind —
    binding a thousand instruments allocates nothing."""
    metrics = NULL_RECORDER.metrics
    counters = {id(metrics.counter(f"c{i}")) for i in range(1000)}
    assert len(counters) == 1
    assert NULL_RECORDER.spans.span("a") is NULL_RECORDER.spans.span("b")
