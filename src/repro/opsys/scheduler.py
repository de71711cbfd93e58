"""CFS-style per-core scheduler with load balancing and task stealing.

This is the OS behaviour the paper studies (§II):

* per-core run queues; the head runs for one quantum, then round-robins;
* **wake-up spreading** — new and woken threads are placed on the least
  loaded *allowed* core anywhere in the machine, which is what scatters
  MonetDB's workers across NUMA nodes;
* a periodic **load balancer** that steals waiting tasks from the busiest
  core for the idlest one, oblivious to where the stolen thread's data
  lives (the "stolen tasks" metric of Fig 13d);
* **cpuset enforcement** — the elastic mechanism edits the mask and the
  scheduler evicts threads from released cores at their next chunk boundary.

Pinned threads (the NUMA-aware engine's workers) are placed on their pinned
core when it is allowed and are never stolen by the balancer.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain

from ..config import SchedulerConfig
from ..errors import SchedulerError
from ..hardware.machine import Machine
from ..obs.metrics import TIME_BUCKETS
from ..obs.recorder import NULL_RECORDER
from ..sim.engine import Simulator
from ..sim.tracing import (MigrationRecord, PlacementRecord, StageRecord,
                           TraceRecorder)
from .cpuset import CpuSet
from .inventory import DEFAULT_TENANT
from .thread import SimThread, ThreadState
from .vm import VirtualMemory
from .workitem import WorkItem


class _TenantMaskListener:
    """Picklable cpuset subscriber forwarding mask edits to the scheduler.

    A lambda closing over the scheduler would do the same job but cannot
    pickle, and cpuset listeners sit inside every snapshot taken by
    :meth:`~repro.sim.Simulator.snapshot` (warm-start forking).
    """

    __slots__ = ("scheduler", "tenant")

    def __init__(self, scheduler: "Scheduler", tenant: str):
        self.scheduler = scheduler
        self.tenant = tenant

    def __call__(self, added: set[int], removed: set[int]) -> None:
        self.scheduler._on_mask_change(added, removed, self.tenant)


class Scheduler:
    """The simulated kernel scheduler for one machine."""

    def __init__(self, sim: Simulator, machine: Machine, vm: VirtualMemory,
                 cpuset: CpuSet, config: SchedulerConfig | None = None,
                 tracer: TraceRecorder | None = None, obs=None):
        self.sim = sim
        self.machine = machine
        self.vm = vm
        self.cpuset = cpuset
        self.config = config or SchedulerConfig()
        self.tracer = tracer if tracer is not None else TraceRecorder()
        # telemetry instruments are bound once; against a NullRecorder
        # every call below is a shared no-op (the hot-path contract
        # asserted by benchmarks/test_obs_overhead.py)
        self.obs = obs if obs is not None else NULL_RECORDER
        metrics = self.obs.metrics
        self._c_dispatches = metrics.counter("scheduler.dispatches")
        self._c_migrations = metrics.counter("scheduler.migrations")
        self._c_steals = metrics.counter("scheduler.steals")
        self._c_evictions = metrics.counter("scheduler.evictions")
        self._c_wakeups = metrics.counter("scheduler.wakeups")
        self._h_chunk = metrics.histogram("scheduler.chunk_seconds",
                                          TIME_BUCKETS)
        self._h_stage = metrics.histogram("db.stage_seconds",
                                          TIME_BUCKETS)
        n_cores = machine.topology.n_cores
        if cpuset.n_cores != n_cores:
            raise SchedulerError("cpuset size does not match the machine")
        self._queues: list[deque[SimThread]] = [deque()
                                                for _ in range(n_cores)]
        self._running: list[SimThread | None] = [None] * n_cores
        self._last_ran: list[SimThread | None] = [None] * n_cores
        #: incrementally maintained per-core load: queue length plus the
        #: running thread.  Kept exact at every queue/running mutation so
        #: placement and balancing never recount queues.
        self._load: list[int] = [0] * n_cores
        #: node id per core, precomputed (topology lookups validate the
        #: core id on every call; the scheduler's loops do not need that)
        self._node_of: list[int] = [
            machine.topology.node_of_core(c)
            for c in machine.topology.all_cores()]
        #: tenant -> its managed live threads (the controller's park
        #: check reads one entry per pass)
        self._tenant_live: Counter[str] = Counter()
        # hot counter families resolved once (handles survive reset)
        counters = machine.counters
        self._f_tasks = counters.family("tasks")
        self._f_stolen = counters.family("stolen_tasks")
        self._f_useful = counters.family("useful_time")
        self._f_busy = counters.family("busy_time")
        self._f_query_busy = counters.family("query_busy_time")
        self._f_query_ht = counters.family("query_ht_bytes")
        self._f_query_imc = counters.family("query_imc_bytes")
        self._f_query_l3 = counters.family("query_l3_miss")
        #: live (admitted, not yet exited) threads — the PID table the
        #: adaptive mode's priority queue walks
        self.threads: set[SimThread] = set()
        self._balance_scheduled = False
        #: the balancer's recycled timer cell (see Simulator.reschedule)
        self._balance_event = None
        # precompute per-page time estimate pieces for chunk sizing
        cfg = machine.config
        self._freq = cfg.frequency_hz
        lines = cfg.page_bytes / cfg.cache_line_bytes
        self._page_stream_time = (
            cfg.page_bytes / cfg.dram_bandwidth
            + lines / cfg.memory_parallelism * cfg.dram_latency)
        #: tenant name -> the cpuset confining that tenant's managed
        #: threads; the default tenant owns the legacy machine-wide mask
        self._tenant_masks: dict[str, CpuSet] = {DEFAULT_TENANT: cpuset}
        cpuset.subscribe(_TenantMaskListener(self, DEFAULT_TENANT))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def spawn(self, thread: SimThread) -> None:
        """Admit a new thread and place it.

        A managed thread must belong to a tenant with a registered mask;
        otherwise there is no cpuset to confine it to.
        """
        thread.require_state(ThreadState.NEW)
        if thread.managed and thread.tenant not in self._tenant_masks:
            raise SchedulerError(
                f"thread {thread.tid} belongs to tenant {thread.tenant!r}, "
                f"which has no registered mask")
        thread.state = ThreadState.READY
        thread.spawned_at = self.sim.now
        if thread.managed:
            self._tenant_live[thread.tenant] += 1
        self.threads.add(thread)
        self._ensure_balancer()
        core = self._choose_core(thread)
        self._enqueue(thread, core)

    def wake(self, thread: SimThread) -> None:
        """Unblock a thread whose work source produced new items."""
        if thread.state is not ThreadState.BLOCKED:
            return
        thread.state = ThreadState.READY
        self._c_wakeups.inc()
        core = self._choose_core(thread)
        prev = thread.core
        if prev is not None and prev != core:
            self._note_migration(thread, prev, core, stolen=False)
        self._enqueue(thread, core)

    def live_threads(self, tenant: str | None = None) -> int:
        """Threads admitted and not yet exited (incl. blocked).

        With ``tenant`` given, only its managed threads are counted.
        """
        if tenant is None:
            return len(self.threads)
        return self._tenant_live[tenant]

    def core_load(self, core: int) -> int:
        """Queue length of ``core`` including the running thread.  O(1)."""
        return self._load[core]

    def runnable_threads(self, tenant: str | None = None) -> int:
        """Ready or running threads across all cores.

        With ``tenant`` given, only its managed threads are counted.
        """
        if tenant is None:
            return sum(self._load)
        return sum(1 for t in chain(*self._queues, self._running)
                   if t is not None and t.tenant == tenant and t.managed)

    # ------------------------------------------------------------------
    # tenant masks
    # ------------------------------------------------------------------

    def register_tenant_mask(self, tenant: str, cpuset: CpuSet) -> None:
        """Confine ``tenant``'s managed threads to ``cpuset``.

        The scheduler honours one mask per tenant exactly as it honours
        the legacy machine-wide one: placement, idle pulls, balancing
        and eviction all consult the mask of the *thread's* tenant.
        """
        if cpuset.n_cores != self.machine.topology.n_cores:
            raise SchedulerError("tenant mask size does not match "
                                 "the machine")
        if tenant in self._tenant_masks:
            raise SchedulerError(
                f"tenant {tenant!r} already has a mask")
        self._tenant_masks[tenant] = cpuset
        cpuset.subscribe(_TenantMaskListener(self, tenant))

    def _mask_for(self, thread: SimThread) -> CpuSet | None:
        """The cpuset confining ``thread`` (``None`` for unmanaged)."""
        if not thread.managed:
            return None
        return self._tenant_masks[thread.tenant]

    def _may_run_on(self, thread: SimThread, core: int) -> bool:
        """Whether ``thread``'s tenant mask allows ``core``."""
        mask = self._mask_for(thread)
        return mask is None or mask.is_allowed(core)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def _choose_core(self, thread: SimThread) -> int:
        load = self._load
        node_of = self._node_of
        mask = self._mask_for(thread)
        if mask is not None:
            allowed = mask.allowed_tuple()
        else:
            # other applications are not confined by any DB cgroup
            allowed = self.machine.topology.all_cores()
        # historical quirk, kept deliberately: an *unmanaged* pinned
        # thread is still guarded by the default tenant's mask here
        guard = mask if mask is not None else self.cpuset
        if thread.pinned_core is not None:
            if guard.is_allowed(thread.pinned_core):
                return thread.pinned_core
            # pinned core was released: prefer a sibling on the same node
            node = node_of[thread.pinned_core]
            siblings = [c for c in allowed if node_of[c] == node]
            if siblings:
                allowed = siblings
        elif thread.pinned_node is not None:
            # soft NUMA affinity: least-loaded allowed core of the node —
            # but relaxed when the node is congested relative to the rest
            # of the mask ("less effort to maintain coherence of such
            # association" under a shrunken mask, paper §V-C1)
            siblings = [c for c in allowed
                        if node_of[c] == thread.pinned_node]
            if siblings:
                best_local = min(load[c] for c in siblings)
                best_global = min(load[c] for c in allowed)
                congested = (best_local
                             >= best_global
                             + self.config.imbalance_threshold)
                if not congested:
                    allowed = siblings
        return min(allowed, key=lambda c: (load[c], c))

    def _enqueue(self, thread: SimThread, core: int) -> None:
        thread.core = core
        self._queues[core].append(thread)
        self._load[core] += 1
        self._dispatch(core)

    # ------------------------------------------------------------------
    # dispatch / execution
    # ------------------------------------------------------------------

    def _dispatch(self, core: int) -> None:
        load = self._load
        # loop rather than recurse through _idle_pull: a core draining a
        # long queue of finished threads pulls once per thread
        while self._running[core] is None:
            queue = self._queues[core]
            while queue:
                thread = queue.popleft()
                load[core] -= 1
                item = thread.acquire_item()
                if item is None:
                    if thread.source.finished:
                        self._exit(thread)
                    else:
                        self._block(thread)
                    continue
                self._start_chunk(core, thread, item)
                return
            if not self._idle_pull(core):
                return

    def _idle_pull(self, core: int) -> bool:
        """New-idle balancing: a core going idle pulls a waiting thread
        from the busiest queue (CFS's newidle path).  Core-pinned threads
        never move; node-affined threads prefer their node but are pulled
        across nodes when the donor queue is long (the affinity
        relaxation under congestion).  A core outside a tenant's cpuset
        may not pull that tenant's threads (but may pull unmanaged
        ones — other applications).  Returns whether a thread moved onto
        ``core``'s queue; the caller dispatches it."""
        topo = self.machine.topology
        my_node = self._node_of[core]
        queues = self._queues
        donors = sorted((c for c in topo.all_cores() if c != core),
                        key=lambda c: -len(queues[c]))
        for donor in donors:
            queue = queues[donor]
            if not queue:
                break
            cross_node_ok = (len(queue)
                             >= self.config.imbalance_threshold)
            for thread in queue:
                if thread.pinned_core is not None:
                    continue
                if not self._may_run_on(thread, core):
                    continue
                if thread.pinned_node is not None:
                    same_node = thread.pinned_node == my_node
                    if not same_node and not cross_node_ok:
                        continue
                queue.remove(thread)
                self._load[donor] -= 1
                self._f_stolen[core] += 1.0
                self._note_migration(thread, donor, core, stolen=True)
                thread.core = core
                queues[core].append(thread)
                self._load[core] += 1
                return True
        return False

    def _start_chunk(self, core: int, thread: SimThread,
                     item: WorkItem) -> None:
        thread.state = ThreadState.RUNNING
        thread.core = core
        thread.dispatches += 1
        self._running[core] = thread
        self._load[core] += 1
        self._c_dispatches.inc()
        self._f_tasks[core] += 1.0
        if self._last_ran[core] is not thread:
            self._last_ran[core] = thread
            thread.pending_stall += self.config.context_switch_cost
        now = self.sim.now
        if item.started_at is None:
            item.started_at = now
        if thread._last_placed_core != core:
            thread._last_placed_core = core
            self.tracer.emit(PlacementRecord(
                time=now, thread_id=thread.tid, core_id=core,
                node_id=self._node_of[core]))
        elapsed, useful = self._execute(thread, item, core, now)
        self.sim.schedule(elapsed, self._chunk_done, core, thread, item,
                          elapsed, useful)

    def _execute(self, thread: SimThread, item: WorkItem, core: int,
                 now: float) -> tuple[float, float]:
        """Run up to one quantum of ``item`` on ``core`` from time ``now``.

        Returns ``(elapsed, useful)`` — wall seconds consumed and the
        retired-compute share of them (memory stalls excluded).  The
        useful share feeds the ``useful_time`` counter, the basis of the
        controller's load metric.
        """
        machine = self.machine
        node = self._node_of[core]
        config = self.config
        budget = config.quantum
        minor_fault_cost = config.minor_fault_cost
        freq = self._freq
        touch = machine.touch
        touch_pages = self.vm.touch_pages
        # the VM's placement split stays valid for the machine call
        # unless AutoNUMA may migrate pages in between
        hand_split = not self.vm.numa_balancing
        elapsed = thread.pending_stall
        useful = 0.0
        thread.pending_stall = 0.0

        # WorkItem's done/remaining properties re-derive the same slot
        # arithmetic on every poll; the loop below reads the slots once
        # per slice instead (identical expressions, so identical floats)
        total_pages = item._total_pages
        total_cycles = item._total_cycles
        cpp = item.cycles / total_pages if total_pages else 0.0
        page_time_est = cpp / freq + self._page_stream_time
        # guarantee progress: even when carried-over stalls (migration,
        # context switch) exceed the quantum, the chunk still retires at
        # least one slice of work — otherwise two threads alternating on
        # one core could livelock on switch costs alone
        first_slice = True
        while first_slice or elapsed < budget:
            remaining_pages = total_pages - item._read_pos - item._write_pos
            if (remaining_pages == 0
                    and total_cycles - item._cycles_done <= 1e-6):
                break
            first_slice = False
            if remaining_pages:
                want = int((budget - elapsed) / page_time_est) + 1
                want = min(max(want, 1), remaining_pages)
                reads = item.take_reads(want)
                writes_from = len(reads)
                writes = (item.take_writes(want - writes_from)
                          if writes_from < want else ())
                # reads and writes are slices of the work item's page
                # runs; the VM maps them run by run and hands the machine
                # each footprint's placement split
                read_split = [] if hand_split else None
                faults = touch_pages(reads, node, thread, placed=read_split)
                if writes:
                    write_split = [] if hand_split else None
                    faults += touch_pages(writes, node, thread,
                                          placed=write_split)
                n_batch = writes_from + len(writes)
                if writes:
                    # reads then writes, summed field by field
                    read_result = (touch(now, core, reads, placed=read_split)
                                   if writes_from else None)
                    write_result = machine.touch_write(now, core, writes,
                                                       placed=write_split)
                    if read_result is None:
                        stall = write_result.stall_time
                        misses = write_result.misses
                        bytes_local = write_result.bytes_local
                        bytes_remote = write_result.bytes_remote
                    else:
                        stall = (read_result.stall_time
                                 + write_result.stall_time)
                        misses = (read_result.misses
                                  + write_result.misses)
                        bytes_local = (read_result.bytes_local
                                       + write_result.bytes_local)
                        bytes_remote = (read_result.bytes_remote
                                        + write_result.bytes_remote)
                else:
                    result = touch(now, core, reads, placed=read_split)
                    stall = result.stall_time
                    misses = result.misses
                    bytes_local = result.bytes_local
                    bytes_remote = result.bytes_remote
                done_cycles = item._cycles_done + n_batch * cpp
                item._cycles_done = (done_cycles
                                     if done_cycles < total_cycles
                                     else total_cycles)
                compute = n_batch * cpp / freq
                useful += compute
                elapsed += (stall + compute
                            + faults * minor_fault_cost)
                if item.query_name:
                    name = item.query_name
                    self._f_query_ht[name] += bytes_remote
                    self._f_query_imc[name] += bytes_local + bytes_remote
                    self._f_query_l3[name] += misses
            else:
                # trailing (or pure) compute
                need = (total_cycles - item._cycles_done) / freq
                run = min(need, max(budget - elapsed, budget * 0.25))
                if run <= 0:
                    break
                done_cycles = item._cycles_done + (run * freq + 1e-3)
                item._cycles_done = (done_cycles
                                     if done_cycles < total_cycles
                                     else total_cycles)
                useful += run
                elapsed += run
        # floats: make sure an item with no pages left ends cleanly
        if (total_pages - item._read_pos - item._write_pos == 0
                and total_cycles - item._cycles_done < 1.0):
            item._cycles_done = total_cycles
        return max(elapsed, 1e-9), useful

    def _chunk_done(self, core: int, thread: SimThread, item: WorkItem,
                    elapsed: float, useful: float) -> None:
        # _execute returns at least 1e-9 and Simulator.schedule rejects
        # a NaN, so the busy time needs none of account_busy's checks
        self._f_busy[core] += elapsed
        self._f_useful[core] += useful
        self._h_chunk.observe(elapsed)
        if item.query_name:
            self._f_query_busy[item.query_name] += elapsed
        self._running[core] = None
        self._load[core] -= 1
        # WorkItem.done, read off the slots
        if (item._total_pages - item._read_pos - item._write_pos == 0
                and item._total_cycles - item._cycles_done <= 1e-6):
            thread.current_item = None
            if item.started_at is not None:
                now = self.sim.now
                stage_elapsed = now - item.started_at
                self.tracer.emit(StageRecord(
                    time=now, thread_id=thread.tid,
                    query_name=item.query_name, operator=item.label,
                    start_time=item.started_at,
                    elapsed=stage_elapsed, core_id=core))
                self._h_stage.observe(stage_elapsed)
                if self.obs.enabled:
                    self.obs.spans.add_complete(
                        f"stage:{item.label}", start=item.started_at,
                        duration=stage_elapsed, track="sim",
                        tid=thread.tid,
                        args={"query": item.query_name, "core": core})
            if item.on_complete is not None:
                item.on_complete(item)
        thread.state = ThreadState.READY
        target = core
        if not self._may_run_on(thread, core):
            target = self._choose_core(thread)
            self._note_migration(thread, core, target, stolen=False)
        self._queues[target].append(thread)
        self._load[target] += 1
        thread.core = target
        if target != core:
            self._dispatch(target)
        self._dispatch(core)

    # ------------------------------------------------------------------
    # blocking / exit
    # ------------------------------------------------------------------

    def _block(self, thread: SimThread) -> None:
        thread.state = ThreadState.BLOCKED
        thread.source.register_waiter(thread)

    def _exit(self, thread: SimThread) -> None:
        thread.state = ThreadState.DONE
        thread.exited_at = self.sim.now
        if thread.managed:
            self._tenant_live[thread.tenant] -= 1
        self.threads.discard(thread)
        if thread.on_exit is not None:
            thread.on_exit(thread)

    # ------------------------------------------------------------------
    # load balancing
    # ------------------------------------------------------------------

    def _ensure_balancer(self) -> None:
        if not self._balance_scheduled:
            self._balance_scheduled = True
            if self._balance_event is None:
                self._balance_event = self.sim.schedule(
                    self.config.balance_interval, self._balance)
            else:
                # re-arm the recycled timer cell: same ordering semantics
                # as a fresh schedule(), no Event allocation per tick
                self.sim.reschedule(self._balance_event,
                                    self.config.balance_interval)

    def _balance(self) -> None:
        self._balance_scheduled = False
        if not self.threads:
            return
        # one balancing domain per tenant mask (cgroups semantics: the
        # kernel balances within each cpuset); with a single tenant this
        # is exactly the legacy machine-wide pass
        node_of = self._node_of
        for mask in self._tenant_masks.values():
            allowed = mask.allowed_tuple()
            if len(allowed) <= 1:
                continue
            for _ in range(len(allowed)):
                if not self._steal_once(allowed):
                    break
            # second pass: node-affined threads may move within their node
            for node in self.machine.topology.all_nodes():
                siblings = [c for c in allowed
                            if node_of[c] == node]
                if len(siblings) > 1:
                    for _ in range(len(siblings)):
                        if not self._steal_once(siblings,
                                                within_node=True):
                            break
        self._ensure_balancer()

    def _steal_once(self, cores, within_node: bool = False) -> bool:
        """Move one waiting thread from the busiest to the idlest of
        ``cores`` when their loads differ by the imbalance threshold.
        Core-pinned threads never move; node-affined threads move only
        in a pass over one node's cores (``within_node``)."""
        queues = self._queues
        donors = [c for c in cores
                  if any(t.pinned_core is None
                         and (within_node or t.pinned_node is None)
                         for t in queues[c])]
        if not donors:
            return False
        busiest = max(donors, key=lambda c: (self.core_load(c), -c))
        idlest = min(cores, key=lambda c: (self.core_load(c), c))
        gap = self.core_load(busiest) - self.core_load(idlest)
        if busiest == idlest or gap < self.config.imbalance_threshold:
            return False
        queue = queues[busiest]
        victim = None
        for candidate in reversed(queue):
            if (candidate.pinned_core is None
                    and (within_node or candidate.pinned_node is None)
                    and self._may_run_on(candidate, idlest)):
                victim = candidate
                break
        if victim is None:
            return False
        queue.remove(victim)
        self._load[busiest] -= 1
        self._f_stolen[idlest] += 1.0
        self._note_migration(victim, busiest, idlest, stolen=True)
        victim.core = idlest
        queues[idlest].append(victim)
        self._load[idlest] += 1
        self._dispatch(idlest)
        return True

    # ------------------------------------------------------------------
    # cpuset enforcement
    # ------------------------------------------------------------------

    def _on_mask_change(self, added: set[int], removed: set[int],
                        tenant: str = DEFAULT_TENANT) -> None:
        for core in sorted(removed):
            queue = self._queues[core]
            # evict managed threads whose own tenant mask lost the core
            # (another tenant's threads queued here are unaffected)
            evicted = [t for t in queue
                       if t.managed and not self._may_run_on(t, core)]
            self._c_evictions.inc(len(evicted))
            for thread in evicted:
                queue.remove(thread)
                self._load[core] -= 1
            for thread in evicted:
                target = self._choose_core(thread)
                self._note_migration(thread, core, target, stolen=False)
                self._enqueue(thread, target)
        # newly added cores pull work immediately (new-idle balancing)
        for core in sorted(added):
            self._dispatch(core)
        if added and self.threads:
            self._ensure_balancer()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _note_migration(self, thread: SimThread, src: int, dst: int,
                        stolen: bool) -> None:
        thread.migrations += 1
        thread.pending_stall += self.config.migration_cost
        self._c_migrations.inc()
        if stolen:
            self._c_steals.inc()
        self.machine.counters.increment("migrations", dst)
        self.tracer.emit(MigrationRecord(
            time=self.sim.now, thread_id=thread.tid, src_core=src,
            dst_core=dst, stolen=stolen))
