"""Where the controller's cores go: planning and leasing them.

The :class:`~repro.core.controller.ElasticController` runs the paper's
rule-condition-action loop (§III).  Once the PrT net has fired an
abstract ``allocate``/``release`` action, two pieces turn it into a
cpuset edit:

* :class:`ModePlanner` names the core, as a :class:`CoreDelta`, with an
  :class:`~repro.core.modes.AllocationMode`;
* :class:`LeaseActuator` enacts the delta as core leases through the
  system's :class:`~repro.opsys.inventory.CoreInventory`.

This is what lets two controllers share one machine: each one's planner
sees the cores *other* tenants hold (:meth:`LeaseActuator.foreign`) and
plans around them, and each one's actuator edits only its own tenant's
leases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..opsys.inventory import DEFAULT_TENANT
from ..sim.tracing import CoreAllocation

if TYPE_CHECKING:
    from ..core.modes import AllocationMode
    from ..opsys.inventory import CoreInventory
    from ..opsys.system import OperatingSystem


@dataclass(frozen=True, slots=True)
class CoreDelta:
    """A planned (or applied) change to one tenant's core holdings."""

    allocate: tuple[int, ...] = ()
    release: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.allocate or self.release)

    @property
    def first_core(self) -> int | None:
        """The single core a one-step delta names (``None`` when empty)."""
        if self.allocate:
            return self.allocate[0]
        if self.release:
            return self.release[0]
        return None


#: the empty delta: nothing to change this tick
NO_CHANGE = CoreDelta()


class ModePlanner:
    """Place cores with an allocation mode.

    The planner asks its view (in practice the :class:`LeaseActuator`)
    for the tenant's own cores and the foreign ones, and feeds the mode
    their *union*, so the next allocation never lands on a core another
    tenant holds.  With a single tenant the foreign set is empty and the
    mode sees only the tenant's own cores.  A plan names at most one
    core: the paper moves one core per tick.
    """

    def __init__(self, mode: "AllocationMode", view: "LeaseActuator",
                 n_cores: int):
        self.mode = mode
        self.view = view
        self.n_cores = n_cores

    def initial_mask(self, n_cores: int) -> list[int]:
        """The cores to seed a fresh controller with, skipping foreign."""
        mask: list[int] = []
        taken = set(self.view.foreign())
        for _ in range(n_cores):
            core = self.mode.next_allocation(frozenset(taken))
            taken.add(core)
            mask.append(core)
        return mask

    def plan(self, action: str | None) -> CoreDelta:
        """Name the core for ``"allocate"`` / ``"release"`` / ``None``."""
        if action == "allocate":
            own = self.view.own()
            blocked = own | self.view.foreign()
            if len(blocked) >= self.n_cores:
                # starved: every core is held somewhere.  The model's t5
                # guard only knows this tenant's count, so under
                # contention this is a normal outcome, not an error —
                # the controller re-syncs the model to reality.
                return NO_CHANGE
            return CoreDelta(allocate=(self.mode.next_allocation(blocked),))
        if action == "release":
            return CoreDelta(
                release=(self.mode.next_release(self.view.own()),))
        return NO_CHANGE


class LeaseActuator:
    """Apply deltas as core leases.

    Every edit goes through the system's
    :class:`~repro.opsys.inventory.CoreInventory`, which guarantees the
    core is not held by another tenant and updates the tenant's cpuset —
    the mask the scheduler enforces.  Each applied core emits one
    :class:`~repro.sim.tracing.CoreAllocation` record.  Every core of an
    allocation is checked before the first is leased: leasing a core
    runs the scheduler's mask listener, which may move a thread at once,
    so a rejected delta must be refused before it touches anything.
    """

    def __init__(self, os: "OperatingSystem", tenant: str = DEFAULT_TENANT):
        self.os = os
        self.tenant = tenant
        self.inventory: "CoreInventory" = os.inventory
        self.cpuset = self.inventory.cpuset_of(tenant)

    def seed(self, cores: list[int]) -> None:
        """Lease the initial mask in one atomic edit."""
        self.inventory.seed(self.tenant, cores)
        for core in cores:
            self._trace(core, allocated=True)

    def apply(self, delta: CoreDelta) -> None:
        """Enact ``delta``; a refused allocation changes nothing."""
        self.inventory.check_free(delta.allocate)
        granted: list[CoreAllocation] = []
        for core in delta.allocate:
            self.inventory.acquire(self.tenant, core)
            granted.append(self._record(core, allocated=True))
        for record in granted:
            self.os.tracer.emit(record)
        for core in delta.release:
            # under a controller the model's release guard keeps the
            # tenant above its min_cores, which start() refuses below
            # the inventory's floor, so the inventory never refuses this
            self.inventory.release(self.tenant, core)
            self._trace(core, allocated=False)

    def own(self) -> frozenset[int]:
        """Cores this tenant currently holds."""
        return self.cpuset.allowed()

    def foreign(self) -> frozenset[int]:
        """Cores other tenants hold (off-limits for planning)."""
        return self.inventory.unavailable_to(self.tenant)

    @property
    def n_allocated(self) -> int:
        return len(self.cpuset)

    def _record(self, core: int, allocated: bool) -> CoreAllocation:
        return CoreAllocation(
            time=self.os.now, core_id=core,
            node_id=self.os.topology.node_of_core(core),
            allocated=allocated, n_allocated=len(self.cpuset))

    def _trace(self, core: int, allocated: bool) -> None:
        self.os.tracer.emit(self._record(core, allocated))

