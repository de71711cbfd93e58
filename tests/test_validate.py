"""The system validator: clean runs pass, corrupted states fail."""

import pytest

from repro.config import ControllerConfig
from repro.core.controller import ElasticController
from repro.core.modes import make_mode
from repro.core.strategies import CpuLoadStrategy
from repro.db.clients import repeat_stream
from repro.experiments.common import (build_system, capture_system,
                                      fork_system)
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.thread import SimThread, ThreadState
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.validate import InvariantViolation, SystemValidator

SCALE = 0.004
SIM = 0.125


def test_clean_system_passes():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    validator = SystemValidator(sut.os)
    validator.check()
    assert validator.checks_run == 1


def test_validator_attached_during_workload():
    sut = build_system(mode="adaptive", scale=SCALE, sim_scale=SIM)
    validator = SystemValidator(sut.os, sut.controller)
    handle = validator.attach(interval=0.02)
    sut.run_clients(4, repeat_stream("q6", 2))
    assert validator.checks_run > 5
    assert handle.finished


def test_validator_runs_across_engines():
    for engine in ("monetdb", "sqlserver", "morsel"):
        sut = build_system(engine=engine, mode="dense", scale=SCALE,
                           sim_scale=SIM)
        validator = SystemValidator(sut.os, sut.controller)
        validator.attach(interval=0.05)
        sut.run_clients(2, repeat_stream("q1", 1))
        assert validator.checks_run > 0


def test_detects_duplicated_thread():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    thread = SimThread(ListWorkSource([WorkItem("x", cycles=1e9)]),
                       sut.os.threads_spawned + 1)
    thread.state = ThreadState.READY
    sut.os.scheduler.threads.add(thread)
    sut.os.scheduler._queues[0].append(thread)
    sut.os.scheduler._queues[1].append(thread)
    with pytest.raises(InvariantViolation, match="appears 2 times"):
        SystemValidator(sut.os).check()


def test_detects_orphaned_runnable_thread():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    thread = SimThread(ListWorkSource([WorkItem("x", cycles=1e9)]),
                       sut.os.threads_spawned + 1)
    thread.state = ThreadState.READY
    sut.os.scheduler.threads.add(thread)
    with pytest.raises(InvariantViolation, match="absent from every"):
        SystemValidator(sut.os).check()


def test_detects_queued_thread_on_released_core():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    sut.os.cpuset.set_mask([0, 1])
    thread = SimThread(ListWorkSource([WorkItem("x", cycles=1e9)]),
                       sut.os.threads_spawned + 1)
    thread.state = ThreadState.READY
    sut.os.scheduler.threads.add(thread)
    sut.os.scheduler._queues[5].append(thread)
    with pytest.raises(InvariantViolation, match="released core"):
        SystemValidator(sut.os).check()


def test_detects_time_accounting_corruption():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    sut.os.counters.add("useful_time", 0, 5.0)  # busy stays 0
    with pytest.raises(InvariantViolation, match="exceeds busy"):
        SystemValidator(sut.os).check()


def test_detects_controller_desync():
    sut = build_system(mode="dense", scale=SCALE, sim_scale=SIM)
    sut.controller.model.sync_nalloc(7)  # cpuset still holds 1 core
    with pytest.raises(InvariantViolation, match="nalloc"):
        SystemValidator(sut.os, sut.controller).check()


def test_detects_bad_queue_state():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    thread = SimThread(ListWorkSource([WorkItem("x", cycles=1e9)]),
                       sut.os.threads_spawned + 1)
    thread.state = ThreadState.BLOCKED
    sut.os.scheduler._queues[0].append(thread)
    with pytest.raises(InvariantViolation, match="state blocked"):
        SystemValidator(sut.os).check()


def test_detects_bank_bytes_without_l3_misses():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    sut.run_clients(2, repeat_stream("q6", 1))
    SystemValidator(sut.os).check()  # the law holds after real work
    sut.os.counters.add("imc_bytes", 0, sut.os.machine.config.page_bytes)
    with pytest.raises(InvariantViolation, match="L3 misses account"):
        SystemValidator(sut.os).check()


def test_detects_overfull_l3():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    cache = sut.os.machine.caches[1]
    cache._runs.append(range(0, cache.capacity_pages + 1))
    with pytest.raises(InvariantViolation, match="socket 1 L3 holds"):
        SystemValidator(sut.os).check()


def _dense_controller(os_, tenant):
    return ElasticController(os_, make_mode("dense", os_.topology),
                             CpuLoadStrategy(), ControllerConfig(),
                             tenant=tenant)


def test_named_tenant_controller_checks_against_its_own_mask():
    # the default tenant's mask stays machine-wide; tenant t's
    # controller holds one core, and that is the mask its model tracks
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("t")
    controller = _dense_controller(os_, "t")
    controller.start()
    assert len(controller.cpuset) == 1 < len(os_.cpuset)
    SystemValidator(os_, controller).check()
    controller.model.sync_nalloc(3)
    with pytest.raises(InvariantViolation, match="nalloc 3 != cpuset"):
        SystemValidator(os_, controller).check()


def test_detects_named_tenant_thread_queued_on_a_core_it_released():
    # core 0 is allowed by the default tenant's mask but not by t's, so
    # only t's own mask shows the misplacement
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("t")
    os_.inventory.seed("t", [2, 3])
    for _ in range(3):  # two run on cores 2 and 3, one waits
        os_.spawn_thread(ListWorkSource([WorkItem("x", cycles=1e9)]),
                         tenant="t")
    SystemValidator(os_).check()
    queues = os_.scheduler._queues
    (core,) = [c for c in (2, 3) if queues[c]]
    queues[0].append(queues[core].pop())
    with pytest.raises(InvariantViolation,
                       match="queued on released core 0"):
        SystemValidator(os_).check()


def test_live_thread_counts_follow_spawn_exit_and_fork():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    os_ = sut.os
    os_.create_tenant("t")
    os_.inventory.seed("t", [2, 3])
    os_.cpuset.set_mask([0, 1])

    def work(cycles):
        return ListWorkSource([WorkItem("x", cycles=cycles)])

    for tenant in ("db", "t"):
        os_.spawn_thread(work(1e6), tenant=tenant)
        os_.spawn_thread(work(1e6), tenant=tenant)
        os_.spawn_thread(work(1e10), tenant=tenant)
    os_.spawn_thread(work(1e10), managed=False)
    scheduler = os_.scheduler
    assert (scheduler.live_threads("db"), scheduler.live_threads("t"),
            scheduler.live_threads()) == (3, 3, 7)
    os_.run(until=0.05)
    assert (scheduler.live_threads("db"), scheduler.live_threads("t"),
            scheduler.live_threads()) == (1, 1, 3)
    assert scheduler.live_threads("nobody") == 0
    SystemValidator(os_).check()

    fork = fork_system(capture_system(sut))
    forked = fork.os.scheduler
    assert (forked.live_threads("db"), forked.live_threads("t"),
            forked.live_threads()) == (1, 1, 3)
    SystemValidator(fork.os).check()
    forked._tenant_live["t"] += 1
    with pytest.raises(InvariantViolation,
                       match="counted {'db': 1, 't': 2}"):
        SystemValidator(fork.os).check()
