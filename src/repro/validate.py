"""Runtime invariant checking for simulated systems.

:class:`SystemValidator` inspects a live
:class:`~repro.opsys.system.OperatingSystem` (and optionally its
controller) and raises :class:`InvariantViolation` when any structural
invariant is broken — the simulation-level analogue of a kernel's
``CONFIG_SCHED_DEBUG`` assertions.  It can be called once
(:meth:`check`) or attached as a periodic simulated process
(:meth:`attach`), which the integration tests do to catch corruption
*while* workloads run, not just afterwards.

Checked invariants:

* every queued/running thread appears exactly once across all run
  queues and running slots;
* managed queued threads sit only on cores their tenant's mask allows;
* core-pinned threads sit on their pinned core whenever it is allowed;
* run-queue bookkeeping matches thread states;
* the per-tenant live-thread counts match the scheduler's thread table;
* memory-bank occupancy equals the number of placed pages;
* bytes served by the memory banks (``imc_bytes``) equal L3 misses
  times the page size, and no L3 holds more pages than its capacity;
* useful time never exceeds busy time on any core;
* when a controller is attached, its PrT model's ``nalloc`` equals the
  size of its tenant's cpuset and stays within bounds.
"""

from __future__ import annotations

from collections import Counter

from .errors import ReproError
from .opsys.system import OperatingSystem
from .opsys.thread import ThreadState
from .sim.process import ProcessHandle, spawn_process


class InvariantViolation(ReproError):
    """A structural invariant of the simulated system was broken."""


class SystemValidator:
    """Invariant checker over one operating-system instance."""

    def __init__(self, os: OperatingSystem, controller=None):
        self.os = os
        self.controller = controller
        self.checks_run = 0

    # ------------------------------------------------------------------

    def check(self) -> None:
        """Run every invariant check once; raises on the first failure."""
        self._check_queue_membership()
        self._check_placement_legality()
        self._check_live_counts()
        self._check_memory_accounting()
        self._check_time_accounting()
        if self.controller is not None:
            self._check_controller_consistency()
        self.checks_run += 1

    def attach(self, interval: float = 0.05) -> ProcessHandle:
        """Run :meth:`check` every ``interval`` simulated seconds while
        threads are live."""

        def body():
            while self.os.scheduler.live_threads() > 0:
                self.check()
                yield interval
            self.check()

        return spawn_process(self.os.sim, body())

    # ------------------------------------------------------------------

    def _fail(self, message: str) -> None:
        raise InvariantViolation(
            f"t={self.os.now:.6f}: {message}")

    def _check_queue_membership(self) -> None:
        scheduler = self.os.scheduler
        seen: dict[int, int] = {}
        for core, queue in enumerate(scheduler._queues):
            for thread in queue:
                seen[thread.tid] = seen.get(thread.tid, 0) + 1
                if thread.state is not ThreadState.READY:
                    self._fail(f"{thread.name} queued on core {core} "
                               f"in state {thread.state.value}")
        for core, thread in enumerate(scheduler._running):
            if thread is None:
                continue
            seen[thread.tid] = seen.get(thread.tid, 0) + 1
            if thread.state is not ThreadState.RUNNING:
                self._fail(f"{thread.name} running on core {core} "
                           f"in state {thread.state.value}")
        for tid, count in seen.items():
            if count != 1:
                self._fail(f"thread {tid} appears {count} times in the "
                           f"scheduler structures")
        for thread in scheduler.threads:
            runnable = thread.state in (ThreadState.READY,
                                        ThreadState.RUNNING)
            if runnable and thread.tid not in seen:
                self._fail(f"{thread.name} is {thread.state.value} but "
                           f"absent from every queue")

    def _check_placement_legality(self) -> None:
        scheduler = self.os.scheduler
        for core, thread in enumerate(scheduler._running):
            if thread is None or not thread.managed:
                continue
            mask = scheduler._mask_for(thread)
            if not mask.is_allowed(core):
                # a released core may finish its current chunk; queued
                # threads however must never sit on it
                continue
            if (thread.pinned_core is not None
                    and mask.is_allowed(thread.pinned_core)
                    and core != thread.pinned_core):
                self._fail(f"{thread.name} pinned to "
                           f"{thread.pinned_core} but running on {core}")
        for core, queue in enumerate(scheduler._queues):
            for thread in queue:
                if not scheduler._may_run_on(thread, core):
                    self._fail(f"{thread.name} queued on released "
                               f"core {core}")

    def _check_live_counts(self) -> None:
        scheduler = self.os.scheduler
        walked = Counter(t.tenant for t in scheduler.threads if t.managed)
        counted = scheduler._tenant_live
        if counted != walked:  # a missing tenant counts as zero
            self._fail(f"live managed threads per tenant: counted "
                       f"{dict(sorted(counted.items()))}, thread table "
                       f"holds {dict(sorted(walked.items()))}")

    def _check_memory_accounting(self) -> None:
        memory = self.os.machine.memory
        histogram = memory.placement_histogram()
        if any(count < 0 for count in histogram):
            self._fail(f"negative bank occupancy: {histogram}")
        placed = memory.placed_total()
        if placed != sum(histogram):
            self._fail(f"home map holds {placed} pages but banks "
                       f"account {sum(histogram)}")
        # every L3 miss pulls one page from a memory bank, and nothing
        # else writes either family (both reset together)
        counters = self.os.counters
        imc = counters.total("imc_bytes")
        missed = counters.total("l3_miss") * memory.page_bytes
        if imc != missed:
            self._fail(f"banks served {imc:.0f} bytes but L3 misses "
                       f"account {missed:.0f}")
        for cache in self.os.machine.caches:
            held = len(cache.resident_pages())
            if held > cache.capacity_pages:
                self._fail(f"socket {cache.socket_id} L3 holds {held} "
                           f"pages, capacity {cache.capacity_pages}")

    def _check_time_accounting(self) -> None:
        counters = self.os.counters
        for core in self.os.topology.all_cores():
            busy = counters.get("busy_time", core)
            useful = counters.get("useful_time", core)
            if useful > busy + 1e-9:
                self._fail(f"core {core}: useful {useful} exceeds "
                           f"busy {busy}")
            if busy < 0 or useful < 0:
                self._fail(f"core {core}: negative time accounting")

    def _check_controller_consistency(self) -> None:
        controller = self.controller
        nalloc = controller.model.nalloc
        mask = len(controller.cpuset)
        if nalloc != mask:
            self._fail(f"model nalloc {nalloc} != cpuset size {mask}")
        if not (controller.config.min_cores <= nalloc
                <= self.os.topology.n_cores):
            self._fail(f"nalloc {nalloc} out of bounds")
