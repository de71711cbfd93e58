"""The OperatingSystem facade."""

import pytest

from repro.config import SchedulerConfig
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceRecorder


def test_boot_wires_components():
    os_ = OperatingSystem(small_numa())
    assert os_.topology.n_cores == 4
    assert os_.cpuset.n_cores == 4
    assert os_.scheduler.machine is os_.machine
    assert os_.vm.machine is os_.machine
    assert os_.counters is os_.machine.counters
    assert os_.now == 0.0


def test_external_simulator_and_tracer():
    sim = Simulator()
    tracer = TraceRecorder()
    os_ = OperatingSystem(small_numa(), tracer=tracer, sim=sim)
    assert os_.sim is sim
    assert os_.tracer is tracer


def test_scheduler_config_propagates_to_vm():
    os_ = OperatingSystem(small_numa(),
                          SchedulerConfig(numa_balancing=True,
                                          numa_migration_streak=5))
    assert os_.vm.numa_balancing is True
    assert os_.vm.migration_streak == 5
    assert os_.scheduler.config.numa_balancing is True


def test_run_until_idle_completes_work():
    os_ = OperatingSystem(small_numa())
    pages = list(os_.machine.memory.allocate(4))
    done = []
    os_.spawn_thread(ListWorkSource(
        [WorkItem("w", reads=pages, cycles=1e6,
                  on_complete=lambda it: done.append(1))]))
    events = os_.run_until_idle()
    assert done == [1]
    assert events > 0
    assert os_.now > 0


def test_run_until_bound():
    os_ = OperatingSystem(small_numa())
    os_.sim.schedule(5.0, lambda: None)
    os_.run(until=1.0)
    assert os_.now == 1.0


def test_wake_is_safe_on_non_blocked_threads():
    os_ = OperatingSystem(small_numa())
    thread = os_.spawn_thread(ListWorkSource(
        [WorkItem("w", cycles=1e6)]))
    os_.wake(thread)  # READY/RUNNING: no-op, no error
    os_.run_until_idle()
