"""Property tests: the fast-path event loop matches the seed loop.

The dispatch loop in :mod:`repro.sim.engine` was rewritten for speed
(fused peek/pop, O(1) live-event counter, timer re-arming via
``reschedule``).  Everything downstream assumes the rewrite changed *no*
observable behaviour — delivery order, tie-breaking, lazy-cancel
semantics, the ``until`` bound.  These tests pin that equivalence by
replaying random schedules (with cancellations and periodic timers)
against ``ReferenceSimulator``, a verbatim copy of the seed
implementation's semantics, and comparing the full delivery logs.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class ReferenceSimulator:
    """The seed engine: peek-then-step loop, O(n) pending, no re-arm."""

    def __init__(self):
        self._heap = []
        self._now = 0.0
        self._seq = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, fn, *args):
        self._seq += 1
        event = _RefEvent(self._now + delay, self._seq, fn, args)
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event):
        event.cancelled = True

    def pending(self):
        return sum(1 for e in self._heap if not e.cancelled)

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            event.fn(*event.args)
            return True
        return False

    def run(self, until=None, max_events=None):
        delivered = 0
        while True:
            if max_events is not None and delivered >= max_events:
                break
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                break
            if self.step():
                delivered += 1
        return delivered


# ---------------------------------------------------------------------
# strategies: a schedule program is a list of (delay, cancel_target)
# entries; delays repeat deliberately so tie-breaking is exercised

_delays = st.integers(min_value=0, max_value=5).map(lambda d: d * 0.25)

_programs = st.lists(
    st.tuples(_delays, st.integers(min_value=-4, max_value=20)),
    min_size=1, max_size=30)


def _replay(sim, program, log):
    """Apply one schedule program to ``sim``, logging deliveries."""
    events = []
    for i, (delay, cancel_target) in enumerate(program):
        events.append(
            sim.schedule(delay, lambda i=i: log.append((i, sim.now))))
        if 0 <= cancel_target < len(events):
            sim.cancel(events[cancel_target])
    return events


@settings(max_examples=200, deadline=None)
@given(program=_programs,
       until=st.one_of(st.none(), _delays),
       max_events=st.one_of(st.none(),
                            st.integers(min_value=0, max_value=12)))
def test_delivery_matches_reference(program, until, max_events):
    ref, ref_log = ReferenceSimulator(), []
    fast, fast_log = Simulator(), []
    _replay(ref, program, ref_log)
    _replay(fast, program, fast_log)
    assert fast.pending() == ref.pending()
    ref_delivered = ref.run(until=until, max_events=max_events)
    fast_delivered = fast.run(until=until, max_events=max_events)
    assert fast_delivered == ref_delivered
    assert fast_log == ref_log
    assert fast.now == ref.now
    assert fast.pending() == ref.pending()


@settings(max_examples=200, deadline=None)
@given(program=_programs)
def test_interleaved_stepping_matches_reference(program):
    """pending() and the clock agree after every single delivery."""
    ref, ref_log = ReferenceSimulator(), []
    fast, fast_log = Simulator(), []
    _replay(ref, program, ref_log)
    _replay(fast, program, fast_log)
    while True:
        ref_more = ref.step()
        fast_more = fast.run(max_events=1) == 1
        assert fast_more == ref_more
        assert fast_log == ref_log
        assert fast.pending() == ref.pending()
        assert fast.now == ref.now
        if not ref_more:
            break


@settings(max_examples=100, deadline=None)
@given(period=st.integers(min_value=1, max_value=4).map(
           lambda p: p * 0.125),
       ticks=st.integers(min_value=1, max_value=10),
       program=_programs)
def test_rearmed_timer_matches_fresh_schedules(period, ticks, program):
    """reschedule() delivers exactly like cancel-and-schedule-anew.

    The reference ticker allocates a fresh event per tick (the seed
    pattern); the fast ticker re-arms one event cell.  With a random
    one-shot program interleaved, the merged delivery logs must match.
    """
    ref, ref_log = ReferenceSimulator(), []
    fast, fast_log = Simulator(), []

    def ref_tick(remaining):
        ref_log.append(("tick", ref.now))
        if remaining > 1:
            ref.schedule(period, ref_tick, remaining - 1)

    state = {}

    def fast_tick():
        fast_log.append(("tick", fast.now))
        state["left"] -= 1
        if state["left"] > 0:
            fast.reschedule(state["event"], period)

    ref.schedule(period, ref_tick, ticks)
    state["left"] = ticks
    state["event"] = fast.schedule(period, fast_tick)

    _replay(ref, [(d, -1) for d, _ in program],
            ref_log)
    _replay(fast, [(d, -1) for d, _ in program],
            fast_log)

    ref.run()
    fast.run()
    assert fast_log == ref_log
    assert fast.pending() == ref.pending() == 0
