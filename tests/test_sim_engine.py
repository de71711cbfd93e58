"""Discrete-event engine: ordering, cancellation, run bounds."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_events_delivered_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(0.3, log.append, "c")
    sim.schedule(0.1, log.append, "a")
    sim.schedule(0.2, log.append, "b")
    sim.run_until_idle()
    assert log == ["a", "b", "c"]


def test_ties_broken_by_scheduling_order():
    sim = Simulator()
    log = []
    for tag in "abc":
        sim.schedule(0.5, log.append, tag)
    sim.run_until_idle()
    assert log == ["a", "b", "c"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run_until_idle()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_cancelled_events_are_dropped():
    sim = Simulator()
    log = []
    event = sim.schedule(0.1, log.append, "cancelled")
    sim.schedule(0.2, log.append, "kept")
    sim.cancel(event)
    sim.run_until_idle()
    assert log == ["kept"]


def test_run_until_bound_stops_before_later_events():
    sim = Simulator()
    log = []
    sim.schedule(0.1, log.append, "early")
    sim.schedule(1.0, log.append, "late")
    delivered = sim.run(until=0.5)
    assert delivered == 1
    assert log == ["early"]
    assert sim.now == 0.5
    sim.run_until_idle()
    assert log == ["early", "late"]


def test_event_at_exact_until_is_delivered():
    sim = Simulator()
    log = []
    sim.schedule(0.5, log.append, "edge")
    sim.run(until=0.5)
    assert log == ["edge"]


def test_events_can_schedule_events():
    sim = Simulator()
    log = []

    def chain(n):
        log.append(n)
        if n < 3:
            sim.schedule(0.1, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run_until_idle()
    assert log == [0, 1, 2, 3]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def _tick():
    pass


def test_nan_delay_rejected_naming_value_and_callback():
    # a NaN key compares false against everything, so once queued it
    # would break the heap order; it is refused at schedule time
    sim = Simulator()
    with pytest.raises(SimulationError, match=r"_tick at delay=nan"):
        sim.schedule(float("nan"), _tick)
    assert sim.pending() == 0
    assert sim.run(max_events=5) == 0


def test_nan_time_rejected_naming_value_and_callback():
    sim = Simulator()
    sim.schedule(1.0, _tick)
    sim.run_until_idle()
    with pytest.raises(SimulationError, match=r"_tick at time=nan"):
        sim.schedule_at(float("nan"), _tick)
    assert sim.pending() == 0


@pytest.mark.parametrize("cancel", [False, True])
def test_nan_reschedule_rejected_naming_value_and_callback(cancel):
    sim = Simulator()
    event = sim.schedule(0.1, _tick)
    if cancel:
        sim.cancel(event)
    sim.run_until_idle()
    with pytest.raises(SimulationError, match=r"_tick at delay=nan"):
        sim.reschedule(event, float("nan"))
    assert sim.pending() == 0
    assert sim.run(max_events=5) == 0


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_infinite_delay_rejected_naming_value_and_callback(value):
    # an infinite delay used to be delivered, leaving now = inf
    sim = Simulator()
    with pytest.raises(SimulationError, match=rf"_tick at delay={value}"):
        sim.schedule(value, _tick)
    assert sim.pending() == 0
    assert sim.run(max_events=5) == 0
    assert sim.now == 0.0


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_infinite_time_rejected_naming_value_and_callback(value):
    sim = Simulator()
    with pytest.raises(SimulationError, match=rf"_tick at time={value}"):
        sim.schedule_at(value, _tick)
    assert sim.pending() == 0


@pytest.mark.parametrize("cancel", [False, True])
@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_infinite_reschedule_rejected_naming_value_and_callback(value,
                                                                cancel):
    sim = Simulator()
    event = sim.schedule(0.1, _tick)
    if cancel:
        sim.cancel(event)
    sim.run_until_idle()
    with pytest.raises(SimulationError, match=rf"_tick at delay={value}"):
        sim.reschedule(event, value)
    assert sim.pending() == 0
    assert sim.run(max_events=5) == 0


def test_run_until_before_now_is_rejected_naming_value():
    # the clock used to rewind to the bound, so a later schedule could
    # land before events that were already delivered
    sim = Simulator()
    sim.schedule(2.0, _tick)
    sim.run(until=2.0)
    with pytest.raises(SimulationError, match=r"until=0\.5"):
        sim.run(until=0.5)
    assert sim.now == 2.0
    event = sim.schedule(0.1, _tick)
    assert event.time == pytest.approx(2.1)


def test_run_until_nan_is_rejected():
    # a NaN bound fails every comparison, so run() ignored it
    sim = Simulator()
    sim.schedule(1.0, _tick)
    with pytest.raises(SimulationError, match=r"until=nan"):
        sim.run(until=float("nan"))
    assert sim.pending() == 1
    assert sim.now == 0.0


def test_run_until_now_is_a_no_op():
    sim = Simulator()
    sim.schedule(1.0, _tick)
    sim.run(until=1.0)
    assert sim.run(until=1.0) == 0
    assert sim.now == 1.0


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    assert sim.pending() == 2
    sim.cancel(e1)
    assert sim.pending() == 1


def test_single_event_run_skips_cancelled_head():
    sim = Simulator()
    e1 = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    sim.cancel(e1)
    assert sim.run(max_events=1) == 1
    assert sim.now == pytest.approx(0.2)


def test_max_events_bounds_delivery():
    sim = Simulator()
    for _ in range(10):
        sim.schedule(0.1, lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending() == 6


def test_run_on_empty_queue_delivers_nothing():
    sim = Simulator()
    assert sim.run(max_events=1) == 0
    assert sim.now == 0.0
