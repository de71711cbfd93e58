"""The OperatingSystem facade: one object wiring machine, VM and scheduler.

Database engines and workloads are written against this class rather than
the individual parts.  It owns the simulator clock, the cpuset (initially
exposing every core, like an unmanaged Linux box), and exposes convenience
constructors for threads.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..config import MachineConfig, SchedulerConfig
from ..hardware.machine import Machine
from ..obs.metrics import tenant_namespace
from ..obs.recorder import current_recorder
from ..sim.engine import Simulator
from ..sim.tracing import TraceRecorder
from .cpuset import CpuSet
from .inventory import DEFAULT_TENANT, CoreInventory
from .scheduler import Scheduler
from .thread import SimThread, WorkSource
from .vm import VirtualMemory


class _TenantCpusetTelemetry:
    """Picklable cpuset subscriber mirroring one tenant's mask into its
    ``cpuset.*`` instruments (``cores_added/cores_removed/allowed_cores``).

    A local closure here would break snapshot pickling (forking captures
    cpuset listener lists).
    """

    __slots__ = ("cpuset", "c_added", "c_removed", "g_allowed")

    def __init__(self, cpuset: CpuSet, metrics, tenant: str):
        self.cpuset = cpuset
        prefix = tenant_namespace("cpuset", tenant)
        self.c_added = metrics.counter(f"{prefix}.cores_added")
        self.c_removed = metrics.counter(f"{prefix}.cores_removed")
        self.g_allowed = metrics.gauge(f"{prefix}.allowed_cores")
        self.g_allowed.set(len(cpuset))

    def __call__(self, added: set[int], removed: set[int]) -> None:
        self.c_added.inc(len(added))
        self.c_removed.inc(len(removed))
        self.g_allowed.set(len(self.cpuset))


class OperatingSystem:
    """A booted simulated machine: hardware + kernel, ready to run threads."""

    def __init__(self, machine_config: MachineConfig | None = None,
                 scheduler_config: SchedulerConfig | None = None,
                 initial_mask: Iterable[int] | None = None,
                 tracer: TraceRecorder | None = None,
                 sim: Simulator | None = None,
                 obs=None):
        self.sim = sim if sim is not None else Simulator()
        #: threads created through :meth:`spawn_thread`; the next one
        #: gets this plus one as its id, so a capture carries the
        #: numbering and a fork continues it
        self.threads_spawned = 0
        self.machine = Machine(machine_config or MachineConfig())
        self.tracer = tracer if tracer is not None else TraceRecorder()
        #: telemetry recorder shared by every layer of this system;
        #: defaults to the installed one (or the null fast path)
        self.obs = obs if obs is not None else current_recorder()
        self.cpuset = CpuSet(self.machine.topology.n_cores, initial_mask)
        #: the core-lease ledger arbitrating between tenants; the default
        #: tenant owns the legacy machine-wide cpuset above
        self.inventory = CoreInventory(self.machine.topology.n_cores)
        self.inventory.adopt(DEFAULT_TENANT, self.cpuset)
        sched_cfg = scheduler_config or SchedulerConfig()
        self.vm = VirtualMemory(
            self.machine, numa_balancing=sched_cfg.numa_balancing,
            migration_streak=sched_cfg.numa_migration_streak)
        self.scheduler = Scheduler(self.sim, self.machine, self.vm,
                                   self.cpuset, sched_cfg, self.tracer,
                                   obs=self.obs)
        self._c_sim_events = self.obs.metrics.counter("sim.events")
        self.cpuset.subscribe(_TenantCpusetTelemetry(
            self.cpuset, self.obs.metrics, DEFAULT_TENANT))

    def create_tenant(self, name: str, min_cores: int = 1) -> CpuSet:
        """Register a new tenant with its own cpuset on this machine.

        The fresh cpuset starts machine-wide (like an unmanaged Linux
        box); a controller seeding the tenant's leases shrinks it.  The
        scheduler confines the tenant's managed threads to the mask, and
        per-tenant ``cpuset.<name>.*`` instruments mirror the default
        tenant's telemetry.
        """
        cpuset = CpuSet(self.machine.topology.n_cores)
        self.inventory.adopt(name, cpuset, min_cores=min_cores)
        self.scheduler.register_tenant_mask(name, cpuset)
        cpuset.subscribe(_TenantCpusetTelemetry(
            cpuset, self.obs.metrics, name))
        return cpuset

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    @property
    def topology(self):
        """The machine topology (shortcut)."""
        return self.machine.topology

    @property
    def counters(self):
        """The hardware counter bank (shortcut)."""
        return self.machine.counters

    def spawn_thread(self, source: WorkSource, name: str = "",
                     process_id: int = 0, pinned_core: int | None = None,
                     pinned_node: int | None = None, managed: bool = True,
                     on_exit=None,
                     tenant: str = DEFAULT_TENANT) -> SimThread:
        """Create and admit a thread in one call."""
        self.threads_spawned += 1
        thread = SimThread(source, self.threads_spawned, name=name,
                           process_id=process_id, pinned_core=pinned_core,
                           pinned_node=pinned_node, managed=managed,
                           on_exit=on_exit, tenant=tenant)
        self.scheduler.spawn(thread)
        return thread

    def wake(self, thread: SimThread) -> None:
        """Unblock a thread (work sources call this when items appear)."""
        self.scheduler.wake(thread)

    def run(self, until: float | None = None) -> int:
        """Drive the simulation; see :meth:`repro.sim.Simulator.run`."""
        delivered = self.sim.run(until=until)
        self._c_sim_events.inc(delivered)
        return delivered

    def run_until_idle(self) -> int:
        """Drive the simulation until no events remain."""
        delivered = self.sim.run_until_idle()
        self._c_sim_events.inc(delivered)
        return delivered
