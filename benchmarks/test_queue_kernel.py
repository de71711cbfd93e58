"""Bench: the event-core kernel — heap queue ops and counter writes.

The simulator's hot loop is schedule/deliver on the event heap plus
counter-family writes from the hardware/OS models.  This bench times the
kernel primitives in isolation (no domain logic), prints a table for
``benchmarks/results/queue_kernel.txt``, and asserts coarse structural
bounds:

* scheduling degrades gracefully with queue size — the heap's per-op
  ``O(log n)`` sift on ``(time, seq, event)`` tuples compares in C, so
  a 10x bigger queue must not cost 3x per event;
* clustered timestamps (many events per exact time) are not slower than
  scattered ones, and heavy cancellation stays cheap under compaction;
* a resolved family handle (:meth:`CounterBank.family`) beats the
  per-call name lookup (:meth:`CounterBank.add`) on batched updates.

These are layer numbers: the end-to-end harness metrics under
``benchmarks/harness/`` overrule them.  Host-time assertions carry
generous margins: the point is catching a 10x structural regression
(e.g. heap sifts falling back to Python-level comparisons), not 10 %
jitter.
"""

from __future__ import annotations

import time

from repro.analysis.report import render_table
from repro.hardware.counters import CounterBank
from repro.sim.engine import Simulator


def _noop():
    pass


def _schedule_pop_rate(n_events: int, spread: float) -> float:
    """Events/second through one schedule-all-then-drain cycle.

    ``spread`` controls how far apart the 97 distinct timestamps lie:
    small spreads pack many events into a short window, large spreads
    scatter them seconds apart.
    """
    sim = Simulator()
    start = time.perf_counter()
    for i in range(n_events):
        sim.schedule((i % 97) * spread, _noop)
    sim.run_until_idle()
    elapsed = time.perf_counter() - start
    return n_events / elapsed


def _cancel_rate(n_events: int) -> float:
    """Schedule/cancel/drain cycle rate with heavy (2/3) cancellation,
    driving the lazy-cancel + compaction machinery."""
    sim = Simulator()
    start = time.perf_counter()
    events = [sim.schedule(0.001 * (i % 53), _noop)
              for i in range(n_events)]
    for i, event in enumerate(events):
        if i % 3:
            sim.cancel(event)
    sim.run_until_idle()
    elapsed = time.perf_counter() - start
    return n_events / elapsed


def _counter_rates(n_ops: int) -> tuple[float, float]:
    """(adds/s via name lookup, adds/s via in-place family-handle
    writes, the form the hot writers use)."""
    bank = CounterBank()
    start = time.perf_counter()
    for i in range(n_ops):
        bank.add("busy_time", i & 15, 1.0)
    by_name = n_ops / (time.perf_counter() - start)

    bank = CounterBank()
    handle = bank.family("busy_time")
    start = time.perf_counter()
    for i in range(n_ops):
        handle[i & 15] += 1.0
    by_handle = n_ops / (time.perf_counter() - start)
    return by_name, by_handle


def test_queue_kernel(record_result):
    clustered_small = _schedule_pop_rate(20_000, 0.0005)
    clustered_large = _schedule_pop_rate(200_000, 0.0005)
    scattered = _schedule_pop_rate(50_000, 0.37)
    cancel_heavy = _cancel_rate(60_000)
    by_name, by_handle = _counter_rates(300_000)

    rows = [
        ("schedule+pop, clustered, 20k", f"{clustered_small:,.0f}"),
        ("schedule+pop, clustered, 200k", f"{clustered_large:,.0f}"),
        ("schedule+pop, scattered, 50k", f"{scattered:,.0f}"),
        ("schedule+cancel 2/3+drain, 60k", f"{cancel_heavy:,.0f}"),
        ("counter add via name lookup", f"{by_name:,.0f}"),
        ("counter add via family handle", f"{by_handle:,.0f}"),
    ]
    text = render_table(("operation", "ops/sec"), rows,
                        title="Event-core kernel throughput")
    record_result("queue_kernel", text)

    # graceful growth: a 10x bigger clustered workload keeps at least a
    # third of the small workload's throughput (tuple keys sift in C;
    # Python-level __lt__ calls would lose far more)
    assert clustered_large > clustered_small / 3
    # clustered timestamps must not fall far behind scattered ones on
    # the same kernel
    assert clustered_small > scattered / 3
    # cancellation stays O(1)-ish per op under compaction churn
    assert cancel_heavy > clustered_small / 6
    # the resolved handle must not lose to the name-lookup path
    assert by_handle > by_name * 0.9
