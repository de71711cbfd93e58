"""Unit tests for the fast-path kernel's supporting structures.

Micro-regressions for the hot-path rewrite: the O(1) live-event counter
and timer re-arming in the simulator, the import-free scheduler chunk
path, the incrementally maintained per-core load
aggregate, the cpuset bitmask caches and batch page placement.
"""

from __future__ import annotations

import dis

import pytest

from repro.errors import AllocationError, HardwareError, SimulationError
from repro.hardware.prebuilt import opteron_8387
from repro.opsys.cpuset import CpuSet
from repro.opsys.inventory import DEFAULT_TENANT
from repro.opsys.scheduler import Scheduler
from repro.opsys.system import OperatingSystem
from repro.sim.engine import Simulator


# ---------------------------------------------------------------------
# O(1) pending + lazy cancel


def test_pending_tracks_schedule_cancel_and_delivery():
    sim = Simulator()
    events = [sim.schedule(i * 0.1, lambda: None) for i in range(5)]
    assert sim.pending() == 5
    sim.cancel(events[2])
    assert sim.pending() == 4
    # double-cancel is a no-op, exactly like the seed's flag write
    sim.cancel(events[2])
    assert sim.pending() == 4
    assert sim.run(max_events=1) == 1
    assert sim.pending() == 3
    sim.run()
    assert sim.pending() == 0


def test_cancel_after_delivery_is_a_noop():
    sim = Simulator()
    event = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    assert sim.run(max_events=1) == 1
    # the seed popped the event off the heap, so a late cancel never
    # affected pending(); the counter must behave the same
    sim.cancel(event)
    assert sim.pending() == 1


# ---------------------------------------------------------------------
# reschedule (timer re-arming)


def test_reschedule_revives_a_cancelled_event():
    sim = Simulator()
    log = []
    event = sim.schedule(0.1, lambda: log.append(sim.now))
    sim.cancel(event)
    assert sim.pending() == 0
    revived = sim.reschedule(event, 0.3)
    assert sim.pending() == 1
    sim.run()
    assert log == [0.3]
    assert revived.delivered


def test_cancel_then_reschedule_then_cancel_again():
    """The cancel-then-reschedule edge case: flags fully reset."""
    sim = Simulator()
    log = []
    event = sim.schedule(0.1, lambda: log.append("fired"))
    sim.cancel(event)
    # a cancelled cell is still queued at its old key, so revival hands
    # back a fresh cell; the caller must track the returned event
    revived = sim.reschedule(event, 0.2)
    assert revived is not event
    sim.cancel(revived)
    assert sim.pending() == 0
    sim.run()
    assert log == []


def test_reschedule_after_delivery_rearms_the_same_cell():
    sim = Simulator()
    log = []

    def tick():
        log.append(sim.now)
        if len(log) < 3:
            sim.reschedule(event, 0.5)

    event = sim.schedule(0.5, tick)
    sim.run()
    assert log == [0.5, 1.0, 1.5]


def test_reschedule_of_a_live_event_is_rejected():
    sim = Simulator()
    event = sim.schedule(0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.reschedule(event, 0.2)


def test_reschedule_negative_delay_is_rejected():
    sim = Simulator()
    event = sim.schedule(0.1, lambda: None)
    sim.cancel(event)
    with pytest.raises(SimulationError):
        sim.reschedule(event, -0.1)


# ---------------------------------------------------------------------
# scheduler fast path


def _opnames(fn):
    return {instruction.opname for instruction in dis.get_instructions(fn)}


def test_execute_does_not_import_in_the_hot_path():
    assert "IMPORT_NAME" not in _opnames(Scheduler._execute)


def test_incremental_load_matches_recomputed_load():
    """``_load`` equals queue depth + running occupancy at probe points."""
    os_ = OperatingSystem(opteron_8387())
    scheduler = os_.scheduler

    def recompute(core):
        return (len(scheduler._queues[core])
                + (scheduler._running[core] is not None))

    def probe():
        for core in range(os_.topology.n_cores):
            assert scheduler.core_load(core) == recompute(core), \
                f"core {core} load drifted"

    # probe while threads are being dispatched, executed and retired
    for delay in (0.0001, 0.001, 0.01, 0.1):
        os_.sim.schedule(delay, probe)
    from repro.opsys.workitem import ListWorkSource, WorkItem

    pages = os_.machine.memory.allocate(64)
    source = ListWorkSource([
        WorkItem(f"item{i}", reads=pages, cycles=5_000.0)
        for i in range(8)])
    for i in range(4):
        os_.spawn_thread(source, name=f"w{i}")
    os_.sim.run_until_idle()
    probe()
    assert scheduler.runnable_threads(DEFAULT_TENANT) == sum(
        scheduler.core_load(c) for c in range(os_.topology.n_cores))


# ---------------------------------------------------------------------
# cpuset bitmask caches


def test_cpuset_mask_and_tuple_stay_in_sync():
    cpuset = CpuSet(8, initial=(0, 3, 5))
    assert cpuset._mask == (1 | 1 << 3 | 1 << 5)
    assert cpuset.allowed_tuple() == (0, 3, 5)
    cpuset.allow(1)
    assert cpuset.allowed_tuple() == (0, 1, 3, 5)
    assert cpuset.is_allowed(1)
    cpuset.disallow(3)
    assert cpuset.allowed_tuple() == (0, 1, 5)
    assert not cpuset.is_allowed(3)
    cpuset.set_mask({2, 6})
    assert cpuset._mask == (1 << 2 | 1 << 6)
    assert cpuset.allowed_tuple() == (2, 6)
    assert cpuset.allowed_sorted() == [2, 6]
    with pytest.raises(AllocationError):
        cpuset.set_mask(())


# ---------------------------------------------------------------------
# batch placement


def test_place_batch_matches_place_semantics():
    from repro.hardware.machine import Machine

    machine = Machine()
    memory = machine.memory
    pages = list(memory.allocate(6))
    memory.place_batch(pages[:3], 1)
    assert all(memory.home(p) == 1 for p in pages[:3])
    assert memory.placement_histogram()[1] == 3
    with pytest.raises(HardwareError):
        memory.place_batch([pages[0]], 0)  # already placed
    with pytest.raises(HardwareError):
        memory.place_batch([pages[3], pages[3]], 0)  # duplicate
    # the batch aborts mid-way but occupancy still covers what landed
    assert memory.home(pages[3]) == 0
    assert memory.placement_histogram()[0] == 1
    with pytest.raises(HardwareError):
        memory.place_batch([10_000_000], 0)  # never allocated
    with pytest.raises(HardwareError):
        memory.place_batch(pages[4:], 99)  # node out of range
