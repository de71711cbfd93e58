"""Property tests: a forked run is bit-identical to an uninterrupted one.

The warm-start harness forks sweeps from a mid-simulation capture, so the
whole experiment layer assumes ``snapshot() -> restore() -> run()``
changes *nothing* observable versus simply letting the original run
continue.  These tests pin that over random programs of schedules,
cancellations and re-armed periodic timers (the three scheduling
primitives the system uses), with an RNG in the captured graph, cutting
the run at a random point: the fork's delivery log, clock and final heap
state must equal the cold run's.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class _Log:
    """Picklable one-shot callback: record (tag, now, rng draw)."""

    __slots__ = ("harness", "tag")

    def __init__(self, harness, tag):
        self.harness = harness
        self.tag = tag

    def __call__(self):
        h = self.harness
        h.log.append((self.tag, h.sim.now, h.rng.random()))


class _Ticker:
    """Picklable periodic callback driven by ``reschedule``."""

    __slots__ = ("harness", "period", "remaining", "event")

    def __init__(self, harness, period, remaining):
        self.harness = harness
        self.period = period
        self.remaining = remaining
        self.event = None

    def __call__(self):
        h = self.harness
        h.log.append(("tick", h.sim.now, h.rng.random()))
        self.remaining -= 1
        if self.remaining > 0:
            self.event = h.sim.reschedule(self.event, self.period)


class _Harness:
    """Simulator + delivery log + RNG, built from one program."""

    def __init__(self, program, ticks, period):
        self.sim = Simulator()
        self.log = []
        self.rng = random.Random(1234)
        if ticks:
            ticker = _Ticker(self, period, ticks)
            ticker.event = self.sim.schedule(period, ticker)
        events = []
        for i, (delay, cancel_target) in enumerate(program):
            events.append(self.sim.schedule(delay, _Log(self, i)))
            if 0 <= cancel_target < len(events):
                self.sim.cancel(events[cancel_target])


# delays repeat deliberately so ties (and therefore seq ordering inside
# the restored heap) are exercised
_delays = st.integers(min_value=0, max_value=5).map(lambda d: d * 0.25)

_programs = st.lists(
    st.tuples(_delays, st.integers(min_value=-4, max_value=20)),
    min_size=1, max_size=25)


@settings(max_examples=150, deadline=None)
@given(program=_programs,
       ticks=st.integers(min_value=0, max_value=6),
       period=st.integers(min_value=1, max_value=4).map(
           lambda p: p * 0.125),
       split=st.integers(min_value=0, max_value=30))
def test_forked_run_matches_uninterrupted(program, ticks, period, split):
    cold = _Harness(program, ticks, period)
    cold.sim.run()

    warm = _Harness(program, ticks, period)
    warm.sim.run(max_events=split)
    state = warm.sim.snapshot(root=warm)
    fork = state.restore()
    fork.sim.run()

    assert fork.log == cold.log
    assert fork.sim.now == cold.sim.now
    assert fork.sim.pending() == cold.sim.pending() == 0

    # restoring is repeatable: a second fork of the same capture replays
    # the identical suffix, untouched by the first fork's run
    again = state.restore()
    again.sim.run()
    assert again.log == cold.log


@settings(max_examples=100, deadline=None)
@given(program=_programs,
       split=st.integers(min_value=0, max_value=30),
       extra=_programs)
def test_divergent_suffixes_match_cell_by_cell(program, split, extra):
    """The sweep pattern: one warm prefix, N different suffixes.

    Each suffix scheduled on a fresh fork must behave exactly as if it
    had been scheduled on a cold run that was driven to the same split
    point — the fork boundary is invisible to the suffix.
    """
    def _suffix(harness):
        events = []
        for i, (delay, cancel_target) in enumerate(extra):
            events.append(
                harness.sim.schedule(delay, _Log(harness, 1000 + i)))
            if 0 <= cancel_target < len(events):
                harness.sim.cancel(events[cancel_target])
        harness.sim.run()

    cold = _Harness(program, 0, 0.125)
    cold.sim.run(max_events=split)
    _suffix(cold)

    warm = _Harness(program, 0, 0.125)
    warm.sim.run(max_events=split)
    state = warm.sim.snapshot(root=warm)
    fork = state.restore()
    _suffix(fork)

    assert fork.log == cold.log
    assert fork.sim.now == cold.sim.now
    assert fork.sim.pending() == cold.sim.pending() == 0
