"""Property tests: the event queue vs a reference global heap.

The simulator's event core (:mod:`repro.sim.engine`) promises that
delivery order, tie-breaking, lazy-cancel/reschedule/revive semantics
and the ``until``/``max_events`` edge cases match the seed
implementation exactly, and that compaction (which may now run inside
the dispatch loop) never reorders anything.  :class:`ReferenceSimulator`
below is a straight reimplementation of the seed loop — one global
``(time, seq)`` heap, lazy cancellation, no compaction — and Hypothesis
drives both engines through the same randomised command scripts,
comparing the full delivery logs, clocks and counters after every run.

``tests/test_props_sim_fastpath.py`` covers the domain layers on top;
this file pins the queue kernel itself.
"""

from __future__ import annotations

import heapq

from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import _COMPACT_MIN_DEAD, Simulator


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled", "delivered")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.delivered = False


class ReferenceSimulator:
    """The seed event loop: one heap, ``(time, seq)`` order, lazy cancel."""

    def __init__(self):
        self._heap = []
        self._now = 0.0
        self._seq = 0
        self._live = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError("past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        if time < self._now:
            raise SimulationError("past")
        self._seq += 1
        event = _RefEvent(time, self._seq, fn, args)
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    def reschedule(self, event, delay):
        if delay < 0:
            raise SimulationError("past")
        if event.cancelled:
            return self.schedule(delay, event.fn, *event.args)
        if not event.delivered:
            raise SimulationError("still queued")
        self._seq += 1
        event.time = self._now + delay
        event.seq = self._seq
        event.cancelled = False
        event.delivered = False
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self._live += 1
        return event

    def cancel(self, event):
        if not (event.cancelled or event.delivered):
            event.cancelled = True
            self._live -= 1

    def pending(self):
        return self._live

    def run(self, until=None, max_events=None):
        heap = self._heap
        delivered = 0
        while heap:
            if max_events is not None and delivered >= max_events:
                break
            time, _seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and time > until:
                if self._live:
                    self._now = until
                break
            heapq.heappop(heap)
            self._live -= 1
            event.delivered = True
            self._now = time
            event.fn(*event.args)
            delivered += 1
        return delivered


# ---------------------------------------------------------------------
# command scripts


class _Callback:
    """Deterministic callback: logs, and low tags spawn one child.

    The spawned child lands at an already-queued timestamp often enough
    to exercise same-time scheduling from a callback (a zero-delay
    child must be delivered before the clock moves, after everything
    already queued at that time).
    """

    def __init__(self, sim, log, tag):
        self.sim = sim
        self.log = log
        self.tag = tag

    def __call__(self):
        self.log.append((self.sim.now, self.tag))
        if self.tag % 4 == 0 and self.tag < 1000:
            child_delay = 0.0 if self.tag % 8 == 0 else 0.002
            self.sim.schedule(child_delay, _Callback(
                self.sim, self.log, self.tag + 1000))


class _Purge:
    """Mid-run mass cancel: logs, then schedules a burst and cancels
    three quarters of it from inside the callback.

    The burst alone crosses ``_COMPACT_MIN_DEAD`` while :meth:`run` is
    dispatching, so the queue compacts under the live loop.  Burst
    events carry tags ``>= 10_000`` and spawn no children.
    """

    def __init__(self, sim, log, tag):
        self.sim = sim
        self.log = log
        self.tag = tag

    def __call__(self):
        self.log.append((self.sim.now, self.tag))
        burst = [self.sim.schedule(0.001 * (i % 5), _Callback(
                     self.sim, self.log, 10_000 * self.tag + i))
                 for i in range(2 * _COMPACT_MIN_DEAD)]
        for i, event in enumerate(burst):
            if i % 4:
                self.sim.cancel(event)


#: delays chosen to collide on exact timestamps and to mix near-future
#: events with ones seconds out
_DELAYS = st.sampled_from(
    [0.0, 0.001, 0.002, 0.004, 0.0499, 0.05, 0.0501, 0.12, 0.7, 2.5])

_COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 255)),
        st.tuples(st.just("reschedule"), st.integers(0, 255), _DELAYS),
        st.tuples(st.just("run_until"), _DELAYS),
        st.tuples(st.just("run_capped"), st.integers(0, 5)),
        st.tuples(st.just("drain"),),
        st.tuples(st.just("purge"), _DELAYS),
    ),
    min_size=1, max_size=60)


def _interpret(sim, log, commands):
    """Run one command script against one engine; returns run() tallies."""
    events = []
    tag = 0
    tallies = []
    for command in commands:
        op = command[0]
        if op == "schedule":
            tag += 1
            events.append(sim.schedule(command[1],
                                       _Callback(sim, log, tag)))
        elif op == "purge":
            tag += 1
            events.append(sim.schedule(command[1], _Purge(sim, log, tag)))
        elif op == "cancel":
            if events:
                sim.cancel(events[command[1] % len(events)])
        elif op == "reschedule":
            if events:
                event = events[command[1] % len(events)]
                if event.delivered or event.cancelled:
                    events.append(sim.reschedule(event, command[2]))
        elif op == "run_until":
            tallies.append(sim.run(until=sim.now + command[1]))
        elif op == "run_capped":
            tallies.append(sim.run(max_events=command[1]))
        else:  # drain
            tallies.append(sim.run())
    tallies.append(sim.run())
    return tallies


@settings(max_examples=200, deadline=None)
@given(commands=_COMMANDS)
# two purges in one instant: the queue compacts inside run() twice
@example(commands=[("schedule", 0.0), ("purge", 0.001), ("schedule", 0.002),
                   ("purge", 0.002), ("run_capped", 3), ("drain",)])
def test_event_queue_matches_reference_heap(commands):
    real, ref = Simulator(), ReferenceSimulator()
    real_log, ref_log = [], []
    real_tallies = _interpret(real, real_log, commands)
    ref_tallies = _interpret(ref, ref_log, commands)
    # identical delivery sequence (times and payloads), bit-for-bit
    assert real_log == ref_log
    assert real_tallies == ref_tallies
    assert real.now == ref.now
    assert real.pending() == ref.pending() == 0


@settings(max_examples=100, deadline=None)
@given(commands=_COMMANDS, bound=_DELAYS)
def test_partial_runs_leave_identical_queues(commands, bound):
    """Stop mid-stream: the clock, the pending count and everything the
    queue still holds must agree with the reference."""
    real, ref = Simulator(), ReferenceSimulator()
    real_log, ref_log = [], []
    for sim, log in ((real, real_log), (ref, ref_log)):
        events = []
        tag = 0
        for command in commands:
            if command[0] == "schedule":
                tag += 1
                events.append(sim.schedule(command[1],
                                           _Callback(sim, log, tag)))
            elif command[0] == "cancel" and events:
                sim.cancel(events[command[1] % len(events)])
        sim.run(until=bound)
    assert real_log == ref_log
    assert real.now == ref.now
    assert real.pending() == ref.pending()
    # the remainders drain identically too
    assert real.run() == ref.run()
    assert real_log == ref_log


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compaction_threshold_crossings_never_reorder(seed):
    """Heavy cancellation drives the queue across the compaction
    threshold repeatedly; the reference never compacts — delivery must
    match regardless."""
    import random
    rng = random.Random(seed)
    times = [rng.choice([0.0, 0.001, 0.003, 0.06, 0.3])
             for _ in range(3 * _COMPACT_MIN_DEAD)]
    doomed = [rng.random() < 0.7 for _ in times]

    real, ref = Simulator(), ReferenceSimulator()
    real_log, ref_log = [], []
    for sim, log in ((real, real_log), (ref, ref_log)):
        events = [sim.schedule(t, _Callback(sim, log, 2 * i + 1))
                  for i, t in enumerate(times)]
        for event, dead in zip(events, doomed):
            if dead:
                sim.cancel(event)
        sim.run()
    assert real_log == ref_log
    assert real.now == ref.now


def test_reschedule_semantics_match_reference():
    """Delivered events re-arm in place; cancelled events revive as a
    fresh schedule of the same callback; queued events refuse."""
    for make in (Simulator, ReferenceSimulator):
        sim = make()
        log = []
        timer = sim.schedule(0.01, _Callback(sim, log, 3))
        try:
            sim.reschedule(timer, 0.5)
        except SimulationError:
            pass
        else:  # pragma: no cover - failure path
            raise AssertionError("queued event must refuse reschedule")
        sim.run()
        assert log == [(0.01, 3)]
        timer = sim.reschedule(timer, 0.02)  # delivered: re-arm
        sim.cancel(timer)
        revived = sim.reschedule(timer, 0.03)  # cancelled: revive
        sim.run()
        assert log == [(0.01, 3), (0.04, 3)]
        assert revived.delivered
