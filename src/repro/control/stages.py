"""The four stages of the control plane: Sense -> Decide -> Plan -> Actuate.

The paper's rule-condition-action pipeline (§III) maps onto four small
interfaces:

``Sensor``
    *rule* — observe the machine and produce a
    :class:`~repro.core.monitor.MonitorSample`
    (:class:`MonitorSensor` wraps the mpstat/likwid stand-in).
``DecisionPolicy``
    *condition* — reduce the sample to the strategy's metric and classify
    it through the PrT net (:class:`ModelPolicy` wraps
    :class:`~repro.core.model.PerformanceModel` +
    :class:`~repro.core.strategies.TransitionStrategy`).
``Planner``
    *where* — turn the abstract ``allocate``/``release`` action into a
    concrete :class:`CoreDelta` naming cores (:class:`ModePlanner` wraps
    an :class:`~repro.core.modes.AllocationMode`).
``Actuator``
    *apply* — enact the delta against the machine
    (:class:`LeaseActuator` goes through the
    :class:`~repro.opsys.inventory.CoreInventory`; the decorators in
    :mod:`repro.control.actuators` add dry-run and cooldown behaviour).

The :class:`~repro.core.controller.ElasticController` is a thin
composition of one instance of each.  Stages communicate through values
(sample, metric, chain, delta), never by reaching into each other — which
is what lets two controllers share one machine: each one's planner sees
the cores *other* tenants hold (:meth:`CoreView.foreign`) and plans
around them, and each one's actuator edits only its own tenant's leases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from ..errors import AllocationError
from ..opsys.inventory import DEFAULT_TENANT
from ..sim.tracing import CoreAllocation

if TYPE_CHECKING:
    from ..core.model import PerformanceModel, TransitionChain
    from ..core.modes import AllocationMode
    from ..core.monitor import Monitor, MonitorSample
    from ..core.strategies import TransitionStrategy
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


# ----------------------------------------------------------------------
# stage interfaces
# ----------------------------------------------------------------------

class Sensor(Protocol):
    """Stage 1 — observe the machine."""

    def prime(self) -> None:
        """Take initial snapshots without producing a sample."""
        ...

    def sense(self) -> "MonitorSample":
        """Observe the window since the previous call."""
        ...


class DecisionPolicy(Protocol):
    """Stage 2 — classify an observation into a transition chain."""

    def metric(self, sample: "MonitorSample") -> float:
        """Reduce a sample to the scalar the model consumes."""
        ...

    def classify(self, metric: float) -> "TransitionChain":
        """Fire the model once and report the chain."""
        ...


class Planner(Protocol):
    """Stage 3 — turn an abstract action into concrete cores."""

    def refresh(self) -> None:
        """Update placement inputs (e.g. the node priority queue)."""
        ...

    def initial_mask(self, n_cores: int) -> list[int]:
        """The cores to seed a fresh controller with."""
        ...

    def plan(self, action: str | None) -> CoreDelta:
        """Name the cores for ``"allocate"`` / ``"release"`` / ``None``."""
        ...


class CoreView(Protocol):
    """What a planner may know about core ownership."""

    def own(self) -> frozenset[int]:
        """Cores this tenant currently holds."""
        ...

    def foreign(self) -> frozenset[int]:
        """Cores held by other tenants (off-limits for planning)."""
        ...


class Actuator(Protocol):
    """Stage 4 — enact a delta (also a :class:`CoreView` for planners)."""

    def seed(self, cores: list[int]) -> None:
        """Apply the initial mask in one atomic edit."""
        ...

    def apply(self, delta: CoreDelta) -> CoreDelta:
        """Enact ``delta``; return the part that actually took effect."""
        ...

    def own(self) -> frozenset[int]: ...

    def foreign(self) -> frozenset[int]: ...

    @property
    def n_allocated(self) -> int:
        """Cores this actuator considers held."""
        ...


# ----------------------------------------------------------------------
# default implementations
# ----------------------------------------------------------------------

class MonitorSensor:
    """Stage 1 default: delegate to a :class:`~repro.core.monitor.Monitor`."""

    def __init__(self, monitor: "Monitor"):
        self.monitor = monitor

    def prime(self) -> None:
        self.monitor.prime()

    def sense(self) -> "MonitorSample":
        return self.monitor.sample()


class ModelPolicy:
    """Stage 2 default: strategy metric + PrT-net classification."""

    def __init__(self, model: "PerformanceModel",
                 strategy: "TransitionStrategy"):
        self.model = model
        self.strategy = strategy

    def metric(self, sample: "MonitorSample") -> float:
        return self.strategy.metric(sample)

    def classify(self, metric: float) -> "TransitionChain":
        return self.model.run_cycle(metric)


class ModePlanner:
    """Stage 3 default: place cores with an allocation mode.

    The planner consults a :class:`CoreView` (in practice the actuator)
    for current holdings, and — unlike the pre-refactor controller —
    feeds the mode the *union* of the tenant's own cores and everything
    foreign, so the next allocation never lands on a core another tenant
    holds.  With a single tenant the foreign set is empty and the mode
    sees exactly what it used to.
    """

    def __init__(self, mode: "AllocationMode", view: CoreView,
                 n_cores: int):
        self.mode = mode
        self.view = view
        self.n_cores = n_cores
        self._refresh_hook = None

    def set_refresh(self, hook) -> None:
        """Install the priority-queue update (adaptive mode only)."""
        self._refresh_hook = hook

    def refresh(self) -> None:
        if self._refresh_hook is not None:
            self._refresh_hook()

    def initial_mask(self, n_cores: int) -> list[int]:
        foreign = self.view.foreign()
        if not foreign:
            return self.mode.initial_mask(n_cores)
        # grow from empty, skipping foreign leases
        mask: list[int] = []
        taken = set(foreign)
        for _ in range(n_cores):
            core = self.mode.next_allocation(frozenset(taken))
            taken.add(core)
            mask.append(core)
        return mask

    def plan(self, action: str | None) -> CoreDelta:
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
    """Stage 4 default: apply deltas as core leases.

    Every edit goes through the system's
    :class:`~repro.opsys.inventory.CoreInventory`, which guarantees the
    core is not held by another tenant and updates the tenant's cpuset —
    the mask the scheduler enforces.  Each applied core emits the same
    :class:`~repro.sim.tracing.CoreAllocation` record the pre-refactor
    controller emitted, in the same order.  Every core of an allocation
    is checked before the first is leased: leasing a core runs the
    scheduler's mask listener, which may move a thread at once, so a
    rejected delta must be refused before it touches anything.
    """

    def __init__(self, os: "OperatingSystem", tenant: str = DEFAULT_TENANT):
        self.os = os
        self.tenant = tenant
        self.inventory: "CoreInventory" = os.inventory
        self.cpuset = self.inventory.cpuset_of(tenant)

    def seed(self, cores: list[int]) -> None:
        self.inventory.seed(self.tenant, cores)
        for core in cores:
            self._trace(core, allocated=True)

    def apply(self, delta: CoreDelta) -> CoreDelta:
        self.inventory.check_free(delta.allocate)
        granted: list[CoreAllocation] = []
        for core in delta.allocate:
            self.inventory.acquire(self.tenant, core)
            granted.append(self._record(core, allocated=True))
        for record in granted:
            self.os.tracer.emit(record)
        for core in delta.release:
            # a failed release keeps that core leased; the next Sense
            # re-syncs the model from the cpuset, so nothing dangles
            self.inventory.release(self.tenant, core)
            self._trace(core, allocated=False)
        return delta

    def own(self) -> frozenset[int]:
        return self.cpuset.allowed()

    def foreign(self) -> frozenset[int]:
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


def single_step(delta: CoreDelta) -> CoreDelta:
    """Guard: the pipeline plans at most one core per tick (paper §III)."""
    if len(delta.allocate) + len(delta.release) > 1:
        raise AllocationError(
            f"the control plane moves one core per tick, got {delta}")
    return delta
